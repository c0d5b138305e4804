package overlay

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/simnet"
	"peerlab/internal/task"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// deployment is a broker plus a set of clients on a simnet.
type deployment struct {
	net     *simnet.Network
	nodes   map[string]*simnet.Node // the broker's and every client's
	broker  *Broker
	clients map[string]*Client
}

// deploy builds a single-shard broker on "broker0" and one client per named
// profile. Client Start (registration) runs inside net.Run from the caller.
func deploy(t *testing.T, profiles map[string]simnet.Profile) *deployment {
	t.Helper()
	return deployShards(t, 1, profiles)
}

// startAll registers every client; must run inside a scheduler process.
func (d *deployment) startAll(t *testing.T) {
	for name, c := range d.clients {
		if err := c.Start(); err != nil {
			t.Errorf("start %s: %v", name, err)
		}
	}
}

func clientProfile() simnet.Profile {
	p := simnet.DefaultProfile()
	p.Bandwidth = 2e6
	p.LatencyOneWay = 20 * time.Millisecond
	return p
}

func TestRegisterAndDiscover(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	var advs int
	d.net.Run(func() {
		d.startAll(t)
		got, err := d.clients["sc1"].Discover()
		if err != nil {
			t.Errorf("Discover: %v", err)
			return
		}
		advs = len(got)
	})
	if advs != 2 {
		t.Fatalf("discovered %d peers, want 2", advs)
	}
	peers := d.broker.Peers()
	if len(peers) != 2 || peers[0] != "sc1" || peers[1] != "sc2" {
		t.Fatalf("broker peers = %v", peers)
	}
}

func TestSendFileBetweenClients(t *testing.T) {
	var got transfer.Received
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	d.clients["sc2"].cfg.OnFile = func(rc transfer.Received) { got = rc }
	var m transfer.Metrics
	var err error
	d.net.Run(func() {
		d.startAll(t)
		err = d.clients["sc1"].Send("sc2", transfer.NewVirtualFile("doc", 2*transfer.Mb, 5), 4, &m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if got.File.Size != 2*transfer.Mb || got.Sender != "sc1" {
		t.Fatalf("received %+v", got)
	}
	if m.TransmissionTime() <= 0 {
		t.Fatal("no transmission time recorded")
	}
	// The broker's statistics must reflect the sender's report.
	snap := d.broker.Registry().Peer("sc2").Snapshot()
	if snap.PctFileSentSession != 100 {
		t.Fatalf("file pct = %v, want 100", snap.PctFileSentSession)
	}
	if snap.TransferRate <= 0 {
		t.Fatal("transfer rate not recorded")
	}
	if snap.PetitionDelay <= 0 {
		t.Fatal("petition delay not recorded")
	}
}

// peerAction is one of the four ways a client acts on a named peer.
type peerAction struct {
	name string
	act  func(peer string) error
}

func peerActions(c *Client) []peerAction {
	file := transfer.NewVirtualFile("f", transfer.Mb, 1)
	return []peerAction{
		{"Send", func(peer string) error {
			return c.Send(peer, file, 2, new(transfer.Metrics))
		}},
		{"SendPieces", func(peer string) error {
			return c.SendPieces(peer, file, 4, []int{1, 3}, new(transfer.Metrics))
		}},
		{"SubmitTask", func(peer string) error {
			_, err := c.SubmitTask(peer, task.Task{Name: "t", WorkUnits: 1})
			return err
		}},
		{"SendInstant", func(peer string) error { return c.SendInstant(peer, "hi") }},
	}
}

// TestSendFileToUnknownPeer: an action on a name no node carries fails in
// the data plane with the transport's ErrUnknownAddr, and reports nothing to
// the broker, which would otherwise open a statistics record for the name.
func TestSendFileToUnknownPeer(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile()})
	d.net.Run(func() { d.startAll(t) })
	for _, a := range peerActions(d.clients["sc1"]) {
		before := d.broker.ControlRPCs()
		var err error
		d.net.Run(func() { err = a.act("ghost") })
		if !errors.Is(err, transport.ErrUnknownAddr) {
			t.Errorf("%s: err = %v, want ErrUnknownAddr", a.name, err)
		}
		if got := d.broker.ControlRPCs() - before; got != 0 {
			t.Errorf("%s to ghost cost %d control RPCs, want 0", a.name, got)
		}
	}
	for _, s := range d.broker.Registry().Snapshots() {
		if s.Peer != "sc1" {
			t.Errorf("the broker holds a statistics record for %q", s.Peer)
		}
	}
}

// TestPeerActionCostsOneBrokerRPC pins the control cost of acting on a peer:
// the client computes the peer's address from its name, so the outcome
// report is the action's only broker RPC. A task adds the executor's two
// load heartbeats (on acceptance and on completion), which are the
// receiving peer's.
func TestPeerActionCostsOneBrokerRPC(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	d.net.Run(func() { d.startAll(t) })
	heartbeats := map[string]int64{"SubmitTask": 2}
	for _, a := range peerActions(d.clients["sc1"]) {
		before := d.broker.ControlRPCs()
		var err error
		d.net.Run(func() { err = a.act("sc2") })
		if err != nil {
			t.Errorf("%s: %v", a.name, err)
		}
		if got, want := d.broker.ControlRPCs()-before, 1+heartbeats[a.name]; got != want {
			t.Errorf("%s cost %d control RPCs, want %d", a.name, got, want)
		}
	}
}

func TestSubmitTaskRoundtrip(t *testing.T) {
	fastP := clientProfile()
	fastP.CPUScore = 2.0
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": fastP})
	var res task.Result
	var err error
	d.net.Run(func() {
		d.startAll(t)
		res, err = d.clients["sc1"].SubmitTask("sc2", task.Task{Name: "fold", WorkUnits: 10})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.OK || res.Peer != "sc2" {
		t.Fatalf("result = %+v", res)
	}
	// 10 units at CPU 2.0 = 5s.
	if res.Elapsed != 5*time.Second {
		t.Fatalf("elapsed = %v, want 5s", res.Elapsed)
	}
	snap := d.broker.Registry().Peer("sc2").Snapshot()
	if snap.PctTaskAcceptSession != 100 || snap.PctTaskExecSession != 100 {
		t.Fatalf("task stats = %+v", snap)
	}
	if snap.SecondsPerUnit < 0.4 || snap.SecondsPerUnit > 0.6 {
		t.Fatalf("SecondsPerUnit = %v, want ~0.5", snap.SecondsPerUnit)
	}
}

func TestTaskRejectionRecorded(t *testing.T) {
	p := clientProfile()
	d := deploy(t, map[string]simnet.Profile{"sc1": p, "sc2": p})
	// Two more concurrent tasks than the executor's queue bound of 16: one
	// may start running, so at least one is refused.
	const tasks = 18
	var errs []error
	d.net.Run(func() {
		d.startAll(t)
		c := d.clients["sc1"]
		results := make([]error, tasks)
		q := d.nodes["sc1"].NewQueue()
		for i := 0; i < tasks; i++ {
			d.net.Scheduler().Go(func() {
				_, err := c.SubmitTask("sc2", task.Task{Name: "t", WorkUnits: 30})
				results[i] = err
				q.Push(i)
			})
		}
		for i := 0; i < tasks; i++ {
			q.Pop()
		}
		errs = results
	})
	rejected := 0
	for _, err := range errs {
		if errors.Is(err, ErrTaskRejected) {
			rejected++
		}
	}
	if rejected == 0 {
		t.Fatalf("no rejection with %d concurrent tasks against a queue of 16: %v", tasks, errs)
	}
	snap := d.broker.Registry().Peer("sc2").Snapshot()
	if snap.PctTaskAcceptSession == 100 {
		t.Fatal("acceptance stats did not record the rejection")
	}
}

// TestMalformedTaskRefused: a task whose work units are NaN, infinite or
// negative — a float any cmd/peer can send over a real socket — is refused
// with the executor's reason, and the serving peer's ready time stays true.
func TestMalformedTaskRefused(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	d.net.Run(func() {
		d.startAll(t)
		for _, w := range []float64{math.NaN(), math.Inf(1), -1} {
			_, err := d.clients["sc1"].SubmitTask("sc2", task.Task{Name: "bad", WorkUnits: w})
			if !errors.Is(err, ErrTaskRejected) || !strings.Contains(err.Error(), task.ErrBadWork.Error()) {
				t.Errorf("SubmitTask(%v work units) = %v, want a rejection naming %q", w, err, task.ErrBadWork)
			}
		}
		if ready := d.clients["sc2"].exec.Load().ReadyIn(); ready != 0 {
			t.Errorf("sc2's ready time after the refusals = %v, want 0", ready)
		}
	})
}

// TestNonFiniteTaskTimeIgnored: a task report's time per unit counts only
// if it is finite, as a CPU score does; the outcome itself still counts.
func TestNonFiniteTaskTimeIgnored(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	d.net.Run(func() {
		d.startAll(t)
		for _, spu := range []float64{math.Inf(1), math.NaN()} {
			d.clients["sc1"].reportTaskOutcome("sc2", true, true, spu)
		}
	})
	snap := d.broker.Registry().Peer("sc2").Snapshot()
	if snap.SecondsPerUnit != 1 {
		t.Fatalf("SecondsPerUnit after non-finite reports = %v, want the neutral 1", snap.SecondsPerUnit)
	}
	if snap.PctTaskExecTotal != 100 || snap.PctTaskAcceptTotal != 100 {
		t.Fatalf("task outcomes not recorded: %+v", snap)
	}
}

func TestInstantMessaging(t *testing.T) {
	var gotFrom, gotText string
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	d.clients["sc2"].cfg.OnInstant = func(from, text string) { gotFrom, gotText = from, text }
	var err error
	d.net.Run(func() {
		d.startAll(t)
		err = d.clients["sc1"].SendInstant("sc2", "hello sc2")
	})
	if err != nil {
		t.Fatal(err)
	}
	if gotFrom != "sc1" || gotText != "hello sc2" {
		t.Fatalf("instant = %q from %q", gotText, gotFrom)
	}
	snap := d.broker.Registry().Peer("sc2").Snapshot()
	if snap.PctMsgSession != 100 {
		t.Fatalf("msg pct = %v", snap.PctMsgSession)
	}
}

func TestStatsReportUpdatesBroker(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile()})
	var booted time.Time
	var err error
	d.net.Run(func() {
		d.startAll(t)
		booted = d.broker.Registry().Peer("sc1").Snapshot().ReadyAt
		err = d.clients["sc1"].ReportStats()
	})
	if err != nil {
		t.Fatal(err)
	}
	// A report sets ReadyAt to its arrival instant plus the reported ReadyIn.
	if readyAt := d.broker.Registry().Peer("sc1").Snapshot().ReadyAt; !readyAt.After(booted) {
		t.Fatalf("stats report did not touch the registry: ReadyAt %v, at boot %v", readyAt, booted)
	}
}

func TestSelectionServiceEconomic(t *testing.T) {
	slow := clientProfile()
	slow.Bandwidth = 100_000
	fast := clientProfile()
	fast.Bandwidth = 5e6
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "slowpeer": slow, "fastpeer": fast})
	var picked []string
	var err error
	d.net.Run(func() {
		d.startAll(t)
		c := d.clients["sc1"]
		// Warm up the broker's statistics with one transfer to each peer.
		c.Send("slowpeer", transfer.NewVirtualFile("w", transfer.Mb, 1), 1, new(transfer.Metrics))
		c.Send("fastpeer", transfer.NewVirtualFile("w", transfer.Mb, 2), 1, new(transfer.Metrics))
		picked, err = c.SelectPeers("economic",
			core.Request{Kind: core.KindFileTransfer, SizeBytes: 10 * transfer.Mb}, 2, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 2 {
		t.Fatalf("picked = %v", picked)
	}
	if picked[0] != "fastpeer" {
		t.Fatalf("economic picked %v first, want fastpeer", picked)
	}
}

func TestSelectionServiceQuickPeer(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile(), "sc3": clientProfile()})
	var picked []string
	var err error
	d.net.Run(func() {
		d.startAll(t)
		picked, err = d.clients["sc1"].SelectPeers("quick-peer",
			core.Request{Kind: core.KindFileTransfer, SizeBytes: transfer.Mb}, 1,
			[]string{"sc3", "sc2"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(picked) != 1 || picked[0] != "sc3" {
		t.Fatalf("quick-peer picked %v, want [sc3]", picked)
	}
}

func TestSelectionExcludesRequester(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	var picked []string
	d.net.Run(func() {
		d.startAll(t)
		picked, _ = d.clients["sc1"].SelectPeers("blind",
			core.Request{Kind: core.KindMessage}, 10, nil)
	})
	for _, p := range picked {
		if p == "sc1" {
			t.Fatal("selection returned the requester itself")
		}
	}
	if len(picked) != 1 || picked[0] != "sc2" {
		t.Fatalf("picked = %v, want [sc2]", picked)
	}
}

func TestSelectionUnknownModel(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	var err error
	d.net.Run(func() {
		d.startAll(t)
		_, err = d.clients["sc1"].SelectPeers("astrology", core.Request{}, 1, nil)
	})
	if err == nil {
		t.Fatal("unknown model accepted")
	}
}

// deployShards builds a broker with the given shard count on "broker0" and
// one client per named profile.
func deployShards(t *testing.T, shards int, profiles map[string]simnet.Profile) *deployment {
	t.Helper()
	n := simnet.New(21)
	bp := simnet.DefaultProfile()
	bp.Bandwidth = 50e6
	bhost := n.MustAddNode("broker0", bp)
	broker, err := NewBroker(bhost, BrokerConfig{Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	d := &deployment{net: n, nodes: map[string]*simnet.Node{"broker0": bhost}, broker: broker, clients: make(map[string]*Client)}
	for name, p := range profiles {
		host := n.MustAddNode(name, p)
		d.nodes[name] = host
		d.clients[name] = NewClient(host, broker.Addr(), ClientConfig{CPUScore: p.CPUScore})
	}
	return d
}

// TestShardedBrokerEndToEnd drives every broker service against a
// multi-shard broker: registrations must land on the owning shard, while
// discovery and selection must read the whole network back in the same
// name order a single shard would, and the one registry must hold every
// peer's statistics.
func TestShardedBrokerEndToEnd(t *testing.T) {
	profiles := map[string]simnet.Profile{}
	names := []string{"sc1", "sc2", "sc3", "sc4", "sc5"}
	for _, name := range names {
		profiles[name] = clientProfile()
	}
	d := deployShards(t, 3, profiles)
	if d.broker.Shards() != 3 {
		t.Fatalf("Shards() = %d", d.broker.Shards())
	}
	var picked []string
	d.net.Run(func() {
		d.startAll(t)
		c := d.clients["sc1"]
		if err := c.Send("sc4", transfer.NewVirtualFile("w", transfer.Mb, 1), 2, new(transfer.Metrics)); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		if err := c.SendInstant("sc3", "ping"); err != nil {
			t.Errorf("SendInstant: %v", err)
			return
		}
		var err error
		picked, err = c.SelectPeers("same-priority",
			core.Request{Kind: core.KindFileTransfer, SizeBytes: transfer.Mb}, len(names), nil)
		if err != nil {
			t.Errorf("SelectPeers: %v", err)
		}
	})
	// Discovery must see every peer across shards, in sorted order.
	peers := d.broker.Peers()
	if len(peers) != len(names) {
		t.Fatalf("broker sees %d peers, want %d: %v", len(peers), len(names), peers)
	}
	for i, name := range names {
		if peers[i] != name {
			t.Fatalf("peers = %v, want name order %v", peers, names)
		}
	}
	// Selection spans shards and still excludes the requester.
	if len(picked) != len(names)-1 {
		t.Fatalf("selection returned %d peers: %v", len(picked), picked)
	}
	for _, p := range picked {
		if p == "sc1" {
			t.Fatal("selection returned the requester")
		}
	}
	// Per-peer statistics landed in the registry, whatever shard owns the
	// peer's advertisement.
	if got := d.broker.Registry().Peer("sc4").Snapshot(); got.PctFileSentSession != 100 {
		t.Fatalf("sc4 file stats = %+v", got)
	}
	if got := d.broker.Registry().Peer("sc3").Snapshot(); got.PctMsgSession != 100 {
		t.Fatalf("sc3 message stats = %+v", got)
	}
	snaps := d.broker.Registry().Snapshots()
	if len(snaps) != len(names) {
		t.Fatalf("registry has %d snapshots, want %d", len(snaps), len(names))
	}
	for i := 1; i < len(snaps); i++ {
		if snaps[i-1].Peer >= snaps[i].Peer {
			t.Fatalf("registry snapshots not sorted: %v before %v", snaps[i-1].Peer, snaps[i].Peer)
		}
	}
}

func TestClientStartFailsWithoutBroker(t *testing.T) {
	n := simnet.New(5)
	host := n.MustAddNode("lonely", clientProfile())
	c := NewClient(host, "broker0/broker", ClientConfig{})
	var err error
	n.Run(func() {
		err = c.Start()
	})
	if !errors.Is(err, ErrBrokerDown) {
		t.Fatalf("err = %v, want ErrBrokerDown", err)
	}
}

// TestNonFiniteCPUScoreIgnored: a CPU score from outside the process — an
// advertised attribute or a reported load, over a real socket from any
// cmd/peer — counts only if it is finite and positive. An infinite score would
// give its peer a zero execution estimate (winning every economic task
// selection) and turn same-priority's normalisation into NaN.
func TestNonFiniteCPUScoreIgnored(t *testing.T) {
	hostile := []string{"+Inf", "-Inf", "NaN", "Infinity", "0", "-2"}
	for _, v := range append(hostile, "1e999") {
		if cfg := (ClientConfig{CPUScore: parseScore(t, v)}).withDefaults(); cfg.CPUScore != 1 {
			t.Errorf("ClientConfig{CPUScore: %s} defaults to %v, want 1", v, cfg.CPUScore)
		}
	}
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile()})
	c := d.clients["sc1"]
	c.cfg.Resilient = true
	d.net.Run(func() {
		d.startAll(t)
		for i, v := range hostile {
			name := fmt.Sprintf("h%d", i)
			adv := testAdv(name).WithAttr(jxta.AttrCPUScore, v)
			if _, err := c.call(d.broker.Addr(), wire.Frame(mtRegister, register{Adv: adv, Stats: statsReport{Peer: name, CPUScore: parseScore(t, v)}}.encodeTo)); err != nil {
				t.Errorf("register %s: %v", name, err)
			}
			// A report from a peer whose lease is gone rebuilds its
			// advertisement from the reported score.
			lapsed := "lapsed" + name
			if _, err := c.call(d.broker.Addr(), wire.Frame(mtStatsReport, statsReport{Peer: lapsed, CPUScore: parseScore(t, v)}.encodeTo)); err != nil {
				t.Errorf("report %s: %v", lapsed, err)
			}
			for _, peer := range []string{name, lapsed} {
				if got := d.broker.Registry().Peer(peer).Snapshot().CPUScore; got != 1 {
					t.Errorf("%s advertised %s: registry score %v, want the neutral 1", peer, v, got)
				}
			}
			if advs := named(d.broker.Advertisements(), lapsed); len(advs) != 1 || advs[0].Attr(jxta.AttrCPUScore) != "" {
				t.Errorf("%s reported %s: rebuilt advertisement %+v", lapsed, v, advs)
			}
		}
		// Degraded selection scores a cached attribute the broker would
		// refuse as 1.
		if _, err := c.Discover(); err != nil {
			t.Errorf("Discover: %v", err)
		}
		// sc1 itself is excluded; every other peer ties at 1 and they
		// order by name.
		want := []string{"h0", "h1", "h2", "h3", "h4", "h5", "lapsedh0", "lapsedh1", "lapsedh2", "lapsedh3", "lapsedh4", "lapsedh5"}
		if got := c.degradedPick(0, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("degradedPick = %v, want %v", got, want)
		}
	})
}

// parseScore is how a CPU score string reaches the broker from outside.
func parseScore(t *testing.T, v string) float64 {
	f, err := strconv.ParseFloat(v, 64)
	if err != nil && !errors.Is(err, strconv.ErrRange) {
		t.Fatalf("ParseFloat(%q): %v", v, err)
	}
	return f
}

func TestTaskSubmissionRefreshesBrokerQueueView(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	var readyDuring time.Time
	var brokerNow time.Time
	d.net.Run(func() {
		d.startAll(t)
		q := d.nodes["sc1"].NewQueue()
		d.net.Scheduler().Go(func() {
			_, err := d.clients["sc1"].SubmitTask("sc2", task.Task{Name: "long", WorkUnits: 60})
			q.Push(err)
		})
		// Give the accept + stats report time to land, then read the
		// broker's view while the task is still running.
		d.net.Scheduler().Sleep(5 * time.Second)
		snap := d.broker.Registry().Peer("sc2").Snapshot()
		readyDuring = snap.ReadyAt
		brokerNow = d.net.Now()
		q.Pop()
	})
	if !readyDuring.After(brokerNow) {
		t.Fatalf("broker's ReadyAt (%v) not in the future at %v; task acceptance did not refresh stats",
			readyDuring, brokerNow)
	}
}

// TestLeaseExpiryHidesDepartedPeer pins the lease contract on a single
// shard: a departed client (stopped, no further reports) vanishes from
// discovery and selection one TTL after its last report — the read settles
// its lease, nothing evicts it beforehand — while a renewing client stays.
func TestLeaseExpiryHidesDepartedPeer(t *testing.T) {
	n := simnet.New(7)
	bhost := n.MustAddNode("broker0", simnet.DefaultProfile())
	broker, err := NewBroker(bhost, BrokerConfig{AdvTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	stay := NewClient(n.MustAddNode("stay", clientProfile()), broker.Addr(), ClientConfig{})
	leave := NewClient(n.MustAddNode("leave", clientProfile()), broker.Addr(), ClientConfig{})
	probe := NewClient(n.MustAddNode("probe", clientProfile()), broker.Addr(), ClientConfig{})
	n.Run(func() {
		for name, c := range map[string]*Client{"stay": stay, "leave": leave, "probe": probe} {
			if err := c.Start(); err != nil {
				t.Errorf("start %s: %v", name, err)
			}
		}
		leave.Stop()
		for i := 0; i < 4; i++ {
			bhost.Sleep(30 * time.Second)
			for name, c := range map[string]*Client{"stay": stay, "probe": probe} {
				if err := c.ReportStats(); err != nil {
					t.Errorf("renew %s: %v", name, err)
				}
			}
		}
		// Two minutes in: leave's lease (last report at registration) is
		// long expired; stay and probe renewed twice inside every TTL
		// window.
		peers := broker.Peers()
		if len(peers) != 2 || peers[0] != "probe" || peers[1] != "stay" {
			t.Errorf("directory after expiry = %v, want [probe stay]", peers)
		}
		got, serr := probe.SelectPeers("blind", core.Request{Kind: core.KindFileTransfer}, 0, nil)
		if serr != nil {
			t.Errorf("select: %v", serr)
		}
		for _, p := range got {
			if p == "leave" {
				t.Error("selection handed out a dead lease")
			}
		}
	})
}
