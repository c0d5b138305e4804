package overlay

import (
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/stats"
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

// named is the part of a directory carrying one name, in its order.
func named(advs []jxta.Advertisement, name string) []jxta.Advertisement {
	var out []jxta.Advertisement
	for _, a := range advs {
		if a.Name == name {
			out = append(out, a)
		}
	}
	return out
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
	if peers := d.broker.Peers(); len(peers) != 0 {
		t.Fatalf("failed boot left the broker with peers %v", peers)
	}
	// The run quiesced (net.Run returned), so no residual process is
	// spinning. Now prove the endpoints were released: a full reboot on the
	// same node must bind both services again.
	d.broker.SetDown(false)
	var bootErr error
	d.net.Run(func() {
		_, bootErr = BootPeer(d.nodes["sc1"], d.broker.Addr(), ClientConfig{CPUScore: 1.5})
	})
	if bootErr != nil {
		t.Fatalf("reboot after failed Start: %v", bootErr)
	}
	if got := d.broker.Peers(); len(got) != 1 || got[0] != "sc1" {
		t.Fatalf("broker peers after reboot = %v", got)
	}
}

// TestRegisterBatchRoundtrip round-trips the register frame — advertisement
// plus the initial load report — and rejects a truncated one.
func TestRegisterBatchRoundtrip(t *testing.T) {
	in := register{
		Adv: testAdv("sc9"),
		Stats: statsReport{
			Peer: "sc9", InboxLen: 3, OutboxLen: 7, QueueLen: 2,
			ReadyIn: 1500 * time.Millisecond, CPUScore: 2.25,
		},
	}
	raw := wire.Frame(mtRegister, in.encodeTo)
	kind, dec, err := wire.Tag(raw)
	if err != nil {
		t.Fatal(err)
	}
	if kind != mtRegister {
		t.Fatalf("kind = %d, want %d", kind, mtRegister)
	}
	out, err := decodeRegister(dec)
	if err != nil {
		t.Fatal(err)
	}
	if out.Stats != in.Stats {
		t.Fatalf("stats roundtrip: got %+v want %+v", out.Stats, in.Stats)
	}
	if out.Adv.Name != in.Adv.Name || out.Adv.ID != in.Adv.ID || out.Adv.Addr != in.Adv.Addr {
		t.Fatalf("adv roundtrip: got %+v want %+v", out.Adv, in.Adv)
	}
	// A truncated frame must error, not panic — at every cut, including the
	// one that drops the whole load report and leaves a bare advertisement.
	advOnly := wire.GetEncoder()
	defer wire.PutEncoder(advOnly)
	in.Adv.Encode(advOnly)
	for _, cut := range []int{len(raw) - 4, 1 + advOnly.Len(), 3} {
		if _, err := decodeRegister(wire.NewDecoder(raw[1:cut])); err == nil {
			t.Fatalf("register truncated to %d of %d bytes decoded without error", cut, len(raw))
		}
	}
	// Trailing garbage is malformed too.
	if _, err := decodeRegister(wire.NewDecoder(append(raw[1:len(raw):len(raw)], 0))); err == nil {
		t.Fatal("register with a trailing byte decoded without error")
	}
}

// TestBatchBootStateAndRPCCount pins the one boot: a Start costs exactly one
// control RPC, and the load report its register frame carries leaves the
// broker where an immediate ReportStats would — same directory, same
// statistics snapshots — apart from the lease expiry the second publish
// pushes out.
func TestBatchBootStateAndRPCCount(t *testing.T) {
	names := []string{"sc1", "sc2", "sc3", "sc4"}
	boot := func(report bool) *deployment {
		profiles := map[string]simnet.Profile{}
		for _, n := range names {
			profiles[n] = clientProfile()
		}
		d := deploy(t, profiles)
		d.net.Run(func() {
			for i, n := range names {
				c := d.clients[n]
				if err := c.Start(); err != nil {
					t.Errorf("start %s: %v", n, err)
					return
				}
				if got := d.broker.ControlRPCs(); !report && got != int64(i+1) {
					t.Errorf("after %d Starts: %d control RPCs, want one each", i+1, got)
				}
				if report {
					if err := c.ReportStats(); err != nil {
						t.Errorf("report %s: %v", n, err)
						return
					}
				}
			}
		})
		return d
	}
	dStart, dBoth := boot(false), boot(true)
	if got := dBoth.broker.ControlRPCs(); got != int64(2*len(names)) {
		t.Fatalf("Start+ReportStats control RPCs = %d, want %d", got, 2*len(names))
	}
	sa := dStart.broker.Advertisements()
	ba := dBoth.broker.Advertisements()
	if len(sa) != len(names) || len(ba) != len(names) {
		t.Fatalf("directory: Start %d entries, Start+ReportStats %d, want %d", len(sa), len(ba), len(names))
	}
	for i := range sa {
		if !ba[i].Expires.After(sa[i].Expires) {
			t.Fatalf("%s: a later report did not push the lease out (%v vs %v)", sa[i].Name, ba[i].Expires, sa[i].Expires)
		}
		sa[i].Expires, ba[i].Expires = time.Time{}, time.Time{}
		if !reflect.DeepEqual(sa[i], ba[i]) {
			t.Fatalf("directory entry %d: Start %+v != Start+ReportStats %+v", i, sa[i], ba[i])
		}
	}
	ss, bs := dStart.broker.Registry().Snapshots(), dBoth.broker.Registry().Snapshots()
	if len(ss) != len(names) {
		t.Fatalf("Start alone left %d statistics records, want %d", len(ss), len(names))
	}
	for i := range ss {
		if ss[i].ReadyAt.IsZero() {
			t.Fatalf("%s: Start did not seed ReadyAt", ss[i].Peer)
		}
		// Instants move with the extra exchange (ReadyAt is "report instant
		// + ReadyIn"); nothing else may.
		if !bs[i].ReadyAt.After(ss[i].ReadyAt) {
			t.Fatalf("%s: ReadyAt %v not after %v", ss[i].Peer, bs[i].ReadyAt, ss[i].ReadyAt)
		}
		for _, sn := range []*stats.Snapshot{&ss[i], &bs[i]} {
			sn.ReadyAt = time.Time{}
		}
	}
	if !reflect.DeepEqual(ss, bs) {
		t.Fatalf("statistics differ:\nStart            %+v\nStart+ReportStats %+v", ss, bs)
	}
}

// TestAcceptBurstServedInArrivalOrder dials the broker from 24 nodes at one
// instant, twice: the first burst's serving processes start on fresh
// coroutines, the second's on the ones the first handed back to the
// scheduler's pool. Every dialer has the same link to the broker, so the acks
// come back in the order the broker served the registrations, which must be
// dial order in both bursts.
func TestAcceptBurstServedInArrivalOrder(t *testing.T) {
	const burst = 24
	d := deploy(t, nil)
	var order []int
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
			if err := conn.Send(wire.Frame(mtRegister, register{Adv: testAdv(host.Name())}.encodeTo)); err != nil {
				t.Errorf("%s: send: %v", host.Name(), err)
				return
			}
			msg, err := conn.Recv()
			if err != nil {
				t.Errorf("%s: recv: %v", host.Name(), err)
				return
			}
			_, dec, _ := wire.Tag(msg.Payload)
			if ack, err := decodeRegisterAck(dec); err != nil || !ack.OK {
				t.Errorf("%s: ack %+v: %v", host.Name(), ack, err)
				return
			}
			order = append(order, i)
		}
	}
	hosts := make([]transport.Host, 2*burst)
	for i := range hosts {
		hosts[i] = d.net.MustAddNode(fmt.Sprintf("b%02d", i), clientProfile())
	}
	d.net.Run(func() {
		spawner := d.nodes["broker0"]
		for i := 0; i < burst; i++ {
			spawner.Go(dial(i, hosts[i]))
		}
		spawner.Sleep(time.Minute) // first burst served
		for i := burst; i < 2*burst; i++ {
			spawner.Go(dial(i, hosts[i]))
		}
	})
	for i, got := range order {
		if got != i {
			t.Fatalf("ack %d came back to dialer %d: burst not served in dial order (all acks: %v)", i, got, order)
		}
	}
	if len(order) != 2*burst {
		t.Fatalf("%d acks came back, want %d", len(order), 2*burst)
	}
}

// TestRegisterCannotDisplaceAnotherPeer: the broker stores a registration
// under the kind and ID its name implies, whatever the frame claims, and
// refuses one with no name. A register naming evil under sc2's ID would list
// evil under an ID not its own, one for sc1 claiming another kind would be
// dropped by the directory, which keeps peers only, and an empty name would
// be listed as a peer.
func TestRegisterCannotDisplaceAnotherPeer(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	send := func(adv jxta.Advertisement) registerAck {
		reply, err := d.clients["sc1"].call(d.broker.Addr(), wire.Frame(mtRegister, register{Adv: adv}.encodeTo))
		if err != nil {
			t.Errorf("register %q: %v", adv.Name, err)
			return registerAck{}
		}
		_, dec, _ := wire.Tag(reply)
		ack, err := decodeRegisterAck(dec)
		if err != nil {
			t.Errorf("register %q: ack: %v", adv.Name, err)
		}
		return ack
	}
	var peers []string
	var unnamed registerAck
	entries := map[string][]jxta.Advertisement{}
	d.net.Run(func() {
		d.startAll(t)
		evil := testAdv("evil")
		evil.ID = jxta.NewID("peer", "sc2")
		send(evil)
		otherKind := testAdv("sc1")
		otherKind.Kind = jxta.AdvPeer + 1
		send(otherKind)
		unnamed = send(testAdv(""))
		if err := d.clients["sc2"].ReportStats(); err != nil {
			t.Errorf("sc2 heartbeat: %v", err)
		}
		peers = d.broker.Peers()
		for _, name := range peers {
			entries[name] = named(d.broker.Advertisements(), name)
		}
	})
	if want := []string{"evil", "sc1", "sc2"}; !reflect.DeepEqual(peers, want) {
		t.Fatalf("peers = %q, want %q", peers, want)
	}
	for _, name := range peers {
		if got := entries[name]; len(got) != 1 || got[0].ID != jxta.NewID("peer", name) || got[0].Addr != string(transport.MakeAddr(name, ServiceTransfer)) {
			t.Errorf("%s's directory entries: %+v", name, got)
		}
	}
	if unnamed.OK {
		t.Error("a register with an empty name was acknowledged")
	}
}

// TestRestartRacesRejoin hammers Broker.Restart from a raw goroutine while
// rejoin waves re-register over expired leases — the blackout/rejoin
// overlap: publishes and reads settling expiry in a just-cleared cache,
// clears landing under a registration burst. Run under -race this is a
// data-race detector for the broker's cache and registry locking; the
// functional assertion is only that a final wave after the storm converges.
func TestRestartRacesRejoin(t *testing.T) {
	const peers = 12
	n := simnet.New(7)
	bp := simnet.DefaultProfile()
	bp.Bandwidth = 50e6
	bhost := n.MustAddNode("broker0", bp)
	broker, err := NewBroker(bhost, BrokerConfig{AdvTTL: 30 * time.Second})
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
				c, err := BootPeer(h, broker.Addr(), ClientConfig{CPUScore: 1})
				if err != nil {
					t.Errorf("round %d boot %s: %v", round, h.Name(), err)
					return
				}
				clients = append(clients, c)
			}
			// Sleep past the TTL, then read: the read and the next wave's
			// publishes settle the expired leases in whatever state the
			// restart storm left behind.
			bhost.Sleep(35 * time.Second)
			broker.Peers()
			for _, c := range clients {
				c.Stop()
			}
			bhost.Sleep(time.Second)
		}
	})
	close(stop)
	wg.Wait()

	// Storm over: one clean wave must converge.
	var finalErr error
	registered := -1
	n.Run(func() {
		final := make([]*Client, len(hosts))
		errs := make([]error, len(hosts))
		join := bhost.NewQueue()
		for i, h := range hosts {
			bhost.Go(func() {
				final[i], errs[i] = BootPeer(h, broker.Addr(), ClientConfig{CPUScore: 1})
				join.Push(nil)
			})
		}
		for range hosts {
			join.Pop()
		}
		if finalErr = errors.Join(errs...); finalErr == nil {
			registered = len(broker.Peers())
		}
		for _, c := range final {
			if c != nil {
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
