package overlay

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// testAdv builds the advertisement registration would build for name.
func testAdv(name string) jxta.Advertisement {
	adv := jxta.Advertisement{
		Kind: jxta.AdvPeer,
		ID:   jxta.NewID("peer", name),
		Name: name,
		Addr: string(transport.MakeAddr(name, ServiceTransfer)),
	}
	return adv.WithAttr(jxta.AttrCPUScore, "2.25")
}

// TestStartTeardownOnRegistrationFailure is the regression test for the
// half-booted-client leak: a Start that fails registration (boot into a
// broker blackout) must tear the client down — receiver, executor, control
// loop, both muxes — so the node's service endpoints are free and a later
// boot on the same node succeeds. Before the fix, Start returned the
// registration error with everything still running, and the next boot died
// on "client bind: service already bound".
func TestStartTeardownOnRegistrationFailure(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile()})
	d.broker.SetDown(true)
	var startErr error
	d.net.Run(func() {
		startErr = d.clients["sc1"].Start()
	})
	if startErr == nil {
		t.Fatal("Start succeeded under a broker blackout")
	}
	if d.clients["sc1"].Registered() {
		t.Fatal("failed boot left the client marked registered")
	}
	// The run quiesced (net.Run returned), so no residual process is
	// spinning. Now prove the endpoints were released: a full reboot on the
	// same node must bind both services again.
	d.broker.SetDown(false)
	var c *Client
	var bootErr error
	d.net.Run(func() {
		node := d.net.Node("sc1")
		c, bootErr = BootPeer(node, d.broker.Addr(), 1.5)
	})
	if bootErr != nil {
		t.Fatalf("reboot after failed Start: %v", bootErr)
	}
	if !c.Registered() {
		t.Fatal("rebooted client not registered")
	}
	if got := d.broker.Peers(); len(got) != 1 || got[0] != "sc1" {
		t.Fatalf("broker peers after reboot = %v", got)
	}
}

func TestRegisterBatchRoundtrip(t *testing.T) {
	in := registerBatch{
		Adv: testAdv("sc9"),
		Stats: statsReport{
			Peer: "sc9", InboxLen: 3, OutboxLen: 7, QueueLen: 2,
			ReadyIn: 1500 * time.Millisecond, CPUScore: 2.25,
		},
	}
	kind, dec, err := kindOf(in.encode())
	if err != nil {
		t.Fatal(err)
	}
	if kind != mtRegisterBatch {
		t.Fatalf("kind = %d, want %d", kind, mtRegisterBatch)
	}
	out, err := decodeRegisterBatch(dec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats != in.Stats {
		t.Fatalf("stats roundtrip: got %+v want %+v", out.Stats, in.Stats)
	}
	if out.Adv.Name != in.Adv.Name || out.Adv.ID != in.Adv.ID || out.Adv.Addr != in.Adv.Addr {
		t.Fatalf("adv roundtrip: got %+v want %+v", out.Adv, in.Adv)
	}
	// A truncated frame must error, not panic.
	raw := in.encode()
	if _, err := decodeRegisterBatch(wire.NewDecoder(raw[1 : len(raw)-4])); err == nil {
		t.Fatal("truncated registerBatch decoded without error")
	}
}

// TestBatchBootStateAndRPCCount proves the batched frame leaves the broker
// in the legacy post-boot state (registered, stats seeded) at exactly one
// control RPC per peer, against two for the legacy register+report pair.
func TestBatchBootStateAndRPCCount(t *testing.T) {
	const peers = 4
	boot := func(batch bool) (*deployment, int64) {
		profiles := map[string]simnet.Profile{}
		names := []string{"sc1", "sc2", "sc3", "sc4"}
		for _, n := range names {
			profiles[n] = clientProfile()
		}
		d := deploy(t, profiles)
		d.net.Run(func() {
			for _, n := range names {
				c := d.clients[n]
				c.cfg.BatchBoot = batch
				if err := c.Start(); err != nil {
					t.Errorf("start %s: %v", n, err)
					return
				}
				if !batch {
					if err := c.ReportStats(); err != nil {
						t.Errorf("report %s: %v", n, err)
						return
					}
				}
			}
		})
		return d, d.broker.ControlRPCs()
	}

	dLegacy, legacyRPCs := boot(false)
	dBatch, batchRPCs := boot(true)

	if legacyRPCs != 2*peers {
		t.Fatalf("legacy boot control RPCs = %d, want %d", legacyRPCs, 2*peers)
	}
	if batchRPCs != peers {
		t.Fatalf("batched boot control RPCs = %d, want %d", batchRPCs, peers)
	}
	// The broker state the selection service reads must match: same
	// directory, same statistics.
	lp, bp := dLegacy.broker.Peers(), dBatch.broker.Peers()
	if len(lp) != peers || len(bp) != peers {
		t.Fatalf("peers: legacy %v batch %v", lp, bp)
	}
	for i := range lp {
		if lp[i] != bp[i] {
			t.Fatalf("directory order differs: legacy %v batch %v", lp, bp)
		}
		ls := dLegacy.broker.Registry().Peer(lp[i]).Snapshot()
		bs := dBatch.broker.Registry().Peer(bp[i]).Snapshot()
		if ls.CPUScore != bs.CPUScore || ls.QueueLen != bs.QueueLen ||
			ls.InboxNow != bs.InboxNow || ls.OutboxNow != bs.OutboxNow {
			t.Fatalf("%s: legacy snapshot %+v != batch snapshot %+v", lp[i], ls, bs)
		}
		if bs.ReadyAt.IsZero() {
			t.Fatalf("%s: batched boot did not seed ReadyAt", bp[i])
		}
	}
}

// TestBootPeersWave boots a wave through BootPeers and checks the whole
// wave lands registered with one control RPC per peer.
func TestBootPeersWave(t *testing.T) {
	d := deploy(t, nil)
	names := []string{"w1", "w2", "w3", "w4", "w5"}
	specs := make([]BootSpec, len(names))
	for i, n := range names {
		host := d.net.MustAddNode(n, clientProfile())
		specs[i] = BootSpec{Host: host, Config: ClientConfig{CPUScore: 1 + float64(i)}}
	}
	var clients []*Client
	var bootErr error
	d.net.Run(func() {
		clients, bootErr = BootPeers(d.net.Node("broker0"), d.broker.Addr(), specs)
	})
	if bootErr != nil {
		t.Fatal(bootErr)
	}
	if len(clients) != len(names) {
		t.Fatalf("booted %d clients, want %d", len(clients), len(names))
	}
	for i, c := range clients {
		if c.Name() != names[i] {
			t.Fatalf("clients[%d] = %s, want %s (spec order)", i, c.Name(), names[i])
		}
		if !c.Registered() {
			t.Fatalf("%s not registered", c.Name())
		}
	}
	if got := d.broker.ControlRPCs(); got != int64(len(names)) {
		t.Fatalf("wave control RPCs = %d, want %d (one per peer)", got, len(names))
	}
	if got := d.broker.Peers(); len(got) != len(names) {
		t.Fatalf("broker peers = %v", got)
	}
	for _, n := range names {
		if s := d.broker.Registry().Peer(n).Snapshot(); s.ReadyAt.IsZero() {
			t.Fatalf("%s: wave boot did not seed stats", n)
		}
	}
}

// TestAcceptBurstServedInArrivalOrder dials the broker from more nodes than
// it keeps resident handlers, all at one instant, twice: the first burst
// finds no handler parked (every conn spawns one), the second finds the
// resident pool parked (the head of the burst wakes them, the rest spawn).
// Each ack's KnownPeers counts the registrations served before it, so it
// must number the burst in dial order on both paths.
func TestAcceptBurstServedInArrivalOrder(t *testing.T) {
	const burst = brokerResidentHandlers + 8
	d := deploy(t, nil)
	known := make([]int, 2*burst)
	dial := func(i int, host transport.Host) func() {
		return func() {
			ep, err := host.Endpoint(ServiceClient)
			if err != nil {
				t.Errorf("%s: %v", host.Name(), err)
				return
			}
			mux := pipe.NewMux(host, ep, pipe.Options{})
			defer mux.Close()
			conn, err := mux.Dial(d.broker.Addr())
			if err != nil {
				t.Errorf("%s: dial: %v", host.Name(), err)
				return
			}
			defer conn.Close()
			if err := conn.Send(register{Adv: testAdv(host.Name())}.encode()); err != nil {
				t.Errorf("%s: send: %v", host.Name(), err)
				return
			}
			msg, err := conn.Recv()
			if err != nil {
				t.Errorf("%s: recv: %v", host.Name(), err)
				return
			}
			_, dec, _ := kindOf(msg.Payload)
			ack, err := decodeRegisterAck(dec)
			if err != nil {
				t.Errorf("%s: ack: %v", host.Name(), err)
				return
			}
			known[i] = ack.KnownPeers
		}
	}
	hosts := make([]transport.Host, 2*burst)
	for i := range hosts {
		hosts[i] = d.net.MustAddNode(fmt.Sprintf("b%02d", i), clientProfile())
	}
	d.net.Run(func() {
		spawner := d.net.Node("broker0")
		for i := 0; i < burst; i++ {
			spawner.Go(dial(i, hosts[i]))
		}
		spawner.Sleep(time.Minute) // first burst served; resident handlers parked
		d.broker.workMu.Lock()
		idle := d.broker.idle
		d.broker.workMu.Unlock()
		if idle != brokerResidentHandlers {
			t.Errorf("%d handlers parked after the first burst, want %d", idle, brokerResidentHandlers)
		}
		for i := burst; i < 2*burst; i++ {
			spawner.Go(dial(i, hosts[i]))
		}
	})
	for i, got := range known {
		if got != i+1 {
			t.Fatalf("ack %d saw %d known peers, want %d: burst not served in dial order (all acks: %v)", i, got, i+1, known)
		}
	}
}

// TestBootPeersFailureStopsWave: a wave booted into a blackout must stop
// every client it started — no half-booted incarnation may survive, so the
// same nodes boot cleanly afterwards.
func TestBootPeersFailureStopsWave(t *testing.T) {
	d := deploy(t, nil)
	names := []string{"w1", "w2", "w3"}
	specs := make([]BootSpec, len(names))
	for i, n := range names {
		specs[i] = BootSpec{Host: d.net.MustAddNode(n, clientProfile()), Config: ClientConfig{CPUScore: 1}}
	}
	d.broker.SetDown(true)
	var bootErr error
	d.net.Run(func() {
		_, bootErr = BootPeers(d.net.Node("broker0"), d.broker.Addr(), specs)
	})
	if bootErr == nil {
		t.Fatal("BootPeers succeeded under a blackout")
	}
	d.broker.SetDown(false)
	// Every node must be fully re-bootable: endpoints free, no leaked
	// incarnation answering its name.
	var retryErr error
	var retried []*Client
	d.net.Run(func() {
		for i := range specs {
			specs[i].Config.Pipe = FreshConnIDs(specs[i].Host)
		}
		retried, retryErr = BootPeers(d.net.Node("broker0"), d.broker.Addr(), specs)
	})
	if retryErr != nil {
		t.Fatalf("re-boot after failed wave: %v", retryErr)
	}
	for _, c := range retried {
		if !c.Registered() {
			t.Fatalf("%s not registered after retry", c.Name())
		}
	}
}

// TestRestartRacesSweepAndRejoin hammers Broker.Restart from a raw
// goroutine while lease sweeps fire and a rejoin wave re-registers — the
// blackout/rejoin overlap: sweeps landing in a just-cleared cache, clears
// landing under a registration burst. Run under -race this is a data-race
// detector for the broker's cache/registry/sweep locking; the functional
// assertion is only that a final wave after the storm converges.
func TestRestartRacesSweepAndRejoin(t *testing.T) {
	const peers = 12
	n := simnet.New(7)
	bp := simnet.DefaultProfile()
	bp.Bandwidth = 50e6
	bhost := n.MustAddNode("broker0", bp)
	broker, err := NewBroker(bhost, BrokerConfig{AdvTTL: 30 * time.Second, LeaseSweep: 5 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	hosts := make([]*simnet.Node, peers)
	for i := range hosts {
		hosts[i] = n.MustAddNode("p"+string(rune('a'+i)), clientProfile())
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				broker.Restart()
				runtime.Gosched()
			}
		}
	}()

	n.Run(func() {
		for round := 0; round < 3; round++ {
			clients := make([]*Client, 0, peers)
			for _, h := range hosts {
				c, err := BootPeerWith(h, broker.Addr(), ClientConfig{
					CPUScore:  1,
					BatchBoot: round%2 == 1,
				})
				if err != nil {
					t.Errorf("round %d boot %s: %v", round, h.Name(), err)
					return
				}
				clients = append(clients, c)
			}
			// Sleep past the TTL so sweeps fire into whatever state the
			// restart storm left behind.
			bhost.Sleep(35 * time.Second)
			for _, c := range clients {
				c.Stop()
			}
			bhost.Sleep(time.Second)
		}
	})
	close(stop)
	wg.Wait()

	// Storm over: one clean wave must converge. The directory is read
	// inside the run, right after the wave — quiescing the network drains
	// the pending sweep timer, which (correctly) evicts the unrenewed
	// leases again.
	var final []*Client
	var finalErr error
	registered := -1
	n.Run(func() {
		specs := make([]BootSpec, len(hosts))
		for i, h := range hosts {
			specs[i] = BootSpec{Host: h, Config: ClientConfig{CPUScore: 1, Pipe: FreshConnIDs(h)}}
		}
		final, finalErr = BootPeers(bhost, broker.Addr(), specs)
		if finalErr == nil {
			registered = len(broker.Peers())
			for _, c := range final {
				c.Stop()
			}
		}
	})
	if finalErr != nil {
		t.Fatal(finalErr)
	}
	if registered != peers {
		t.Fatalf("after storm: %d peers registered, want %d", registered, peers)
	}
}
