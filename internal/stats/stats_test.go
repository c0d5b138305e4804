package stats

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"testing/quick"
	"time"
	"unsafe"
)

// fixedClock returns a controllable clock function.
func fixedClock(start time.Time) (func() time.Time, func(time.Duration)) {
	var mu sync.Mutex
	now := start
	return func() time.Time {
			mu.Lock()
			defer mu.Unlock()
			return now
		}, func(d time.Duration) {
			mu.Lock()
			now = now.Add(d)
			mu.Unlock()
		}
}

var t0 = time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)

// TestFlowOrigination covers the origin-side attribution counters.
func TestFlowOrigination(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("src", clock)
	if s := p.Snapshot(); s.TransfersOriginated != 0 || s.BytesOriginated != 0 {
		t.Fatalf("empty origination = %+v", s)
	}
	p.RecordTransferOriginated(true, 1000)
	p.RecordTransferOriginated(true, 500)
	p.RecordTransferOriginated(false, 700) // failed flows carry no completed bytes
	s := p.Snapshot()
	if s.TransfersOriginated != 3 || s.BytesOriginated != 1500 {
		t.Fatalf("origination = %+v, want 3 flows / 1500 bytes", s)
	}
}

// fnvPick mirrors the broker's shard-ownership rule for test unions.
func fnvPick(regs []*Registry) func(string) *Registry {
	return func(peer string) *Registry {
		h := uint32(2166136261)
		for i := 0; i < len(peer); i++ {
			h ^= uint32(peer[i])
			h *= 16777619
		}
		return regs[h%uint32(len(regs))]
	}
}

// TestUnionConcurrentMultiSourceWriters hammers a sharded Union the way a
// swarm workload does — many sources concurrently recording flow outcomes
// for overlapping peers while readers take whole-network snapshots — and
// checks no update is lost. Run with -race in CI; stats is the one layer of
// the broker that concurrent writers genuinely share.
func TestUnionConcurrentMultiSourceWriters(t *testing.T) {
	const shards, writers, perWriter, peers = 4, 16, 200, 13
	clock, _ := fixedClock(t0)
	regs := make([]*Registry, shards)
	for i := range regs {
		regs[i] = NewRegistry(clock)
	}
	u := NewUnion(regs, fnvPick(regs))

	names := make([]string, peers)
	for i := range names {
		names[i] = string(rune('a'+i)) + "-peer"
	}

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				ps := u.Peer(names[(w+i)%peers])
				ps.RecordTransferOriginated(i%3 != 0, 100)
				ps.RecordFileSent(i%5 != 0)
				ps.RecordMessage(true)
				ps.SetQueues(i%4, i%2)
			}
		}()
	}
	// Concurrent whole-network readers.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if snaps := u.Snapshots(); len(snaps) > peers {
					t.Errorf("snapshot grew beyond the peer set: %d", len(snaps))
					return
				}
			}
		}()
	}
	wg.Wait()
	close(stop)
	readers.Wait()

	var flows, msgs float64
	for _, sn := range u.Snapshots() {
		flows += sn.TransfersOriginated
		msgs += sn.PctMsgSession
	}
	if want := float64(writers * perWriter); flows != want {
		t.Fatalf("flows recorded = %v, want %v (updates lost under concurrency)", flows, want)
	}
	if msgs != float64(peers*100) {
		t.Fatalf("message percentages = %v, want all-100", msgs)
	}
	// Per-peer access through the union and through the owning shard agree.
	for _, n := range names {
		if u.Peer(n) != fnvPick(regs)(n).Peer(n) {
			t.Fatalf("union routed %s to the wrong shard", n)
		}
	}
}

// TestUnionOriginConsistentUnderDeparture is the churn regression for the
// origin-side counters on a sharded registry: sources record transfer
// launches concurrently and some "depart mid-flow" — their last act is
// recording the failed launch of the transfer the departure killed, with no
// completion record ever following. Whatever the interleaving, a departed
// peer must never leave its owning shard holding origin counters that
// disagree with the union view: the union routes per-peer reads to the
// owning shard, so the two views are the same PeerStats and every counter —
// launches and bytes — must match exactly, and the union
// totals must equal the sum the writers actually recorded.
func TestUnionOriginConsistentUnderDeparture(t *testing.T) {
	const shards, peers, launches = 3, 11, 120
	clock, _ := fixedClock(t0)
	regs := make([]*Registry, shards)
	for i := range regs {
		regs[i] = NewRegistry(clock)
	}
	pick := fnvPick(regs)
	u := NewUnion(regs, pick)

	names := make([]string, peers)
	for i := range names {
		names[i] = string(rune('a'+i)) + "-src"
	}

	var wg sync.WaitGroup
	for pi, name := range names {
		departing := pi%2 == 1 // odd peers depart mid-flow
		wg.Add(1)
		go func(name string, departing bool) {
			defer wg.Done()
			ps := u.Peer(name)
			for i := 0; i < launches; i++ {
				ps.RecordTransferOriginated(true, 1000)
			}
			if departing {
				// The departure kills the in-flight transfer: its launch is
				// recorded failed, then the peer is gone — no further writes.
				ps.RecordTransferOriginated(false, 1000)
			}
		}(name, departing)
	}
	wg.Wait()

	var unionLaunches, unionBytes float64
	for _, name := range names {
		fromUnion := u.Peer(name).Snapshot()
		fromShard := pick(name).Peer(name).Snapshot()
		if fromUnion.TransfersOriginated != fromShard.TransfersOriginated ||
			fromUnion.BytesOriginated != fromShard.BytesOriginated {
			t.Fatalf("%s: shard and union origin counters disagree:\nshard: %+v\nunion: %+v",
				name, fromShard, fromUnion)
		}
		unionLaunches += fromUnion.TransfersOriginated
		unionBytes += fromUnion.BytesOriginated
	}
	departed := peers / 2
	if want := float64(peers*launches + departed); unionLaunches != want {
		t.Fatalf("union launches = %v, want %v (a departure's failed launch was lost)", unionLaunches, want)
	}
	// Failed launches move no payload: bytes count only completed ones.
	if want := float64(peers * launches * 1000); unionBytes != want {
		t.Fatalf("union bytes = %v, want %v", unionBytes, want)
	}
	for _, name := range names[1:2] {
		s := u.Peer(name).Snapshot()
		if s.TransfersOriginated != launches+1 || s.BytesOriginated != launches*1000 {
			t.Fatalf("departed %s: %v launches of %v bytes, want %d of %d",
				name, s.TransfersOriginated, s.BytesOriginated, launches+1, launches*1000)
		}
	}
}

func TestRatioPercent(t *testing.T) {
	var r Ratio
	if got := r.PercentOr(42); got != 42 {
		t.Fatalf("empty ratio = %v, want default 42", got)
	}
	r.Record(true)
	r.Record(true)
	r.Record(false)
	r.Record(true)
	if got := r.PercentOr(0); got != 75 {
		t.Fatalf("3/4 = %v, want 75", got)
	}
}

func TestGaugeNowAndAvg(t *testing.T) {
	var g Gauge
	if g.Avg() != 0 {
		t.Fatalf("empty gauge avg = %v", g.Avg())
	}
	g.Set(10)
	g.Set(20)
	g.Set(30)
	if g.Now != 30 {
		t.Fatalf("Now = %v, want 30", g.Now)
	}
	if g.Avg() != 20 {
		t.Fatalf("Avg = %v, want 20", g.Avg())
	}
}

func TestEWMADefaults(t *testing.T) {
	var e EWMA
	if e.Value(7) != 7 {
		t.Fatalf("empty EWMA = %v, want default", e.Value(7))
	}
	e.Observe(10)
	if e.Value(0) != 10 {
		t.Fatalf("first sample = %v, want 10", e.Value(0))
	}
	e.Observe(20)
	v := e.Value(0)
	if v <= 10 || v >= 20 {
		t.Fatalf("EWMA after 10,20 = %v, want between", v)
	}
}

func TestMessagePercentages(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	for i := 0; i < 8; i++ {
		p.RecordMessage(true)
	}
	p.RecordMessage(false)
	p.RecordMessage(false)
	s := p.Snapshot()
	if s.PctMsgSession != 80 || s.PctMsgTotal != 80 {
		t.Fatalf("session/total = %v/%v, want 80/80", s.PctMsgSession, s.PctMsgTotal)
	}
}

func TestSessionCriteriaEqualTotals(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		clock, advance := fixedClock(t0)
		r := NewRegistry(clock)
		names := []string{"a", "b", "c"}
		ops := []func(p *PeerStats){
			func(p *PeerStats) { p.RecordMessage(rng.Intn(3) > 0) },
			func(p *PeerStats) { p.SetQueues(rng.Intn(9), rng.Intn(9)) },
			func(p *PeerStats) { p.RecordTaskOffer(rng.Intn(4) > 0) },
			func(p *PeerStats) { p.RecordTaskExecution(rng.Intn(4) > 0, rng.Float64()*3) },
			func(p *PeerStats) { p.SetQueueLen(rng.Intn(5)) },
			func(p *PeerStats) { p.SetReadyAt(clock().Add(time.Duration(rng.Intn(60)) * time.Second)) },
			func(p *PeerStats) { p.RecordFileSent(rng.Intn(5) > 0) },
			func(p *PeerStats) { p.RecordTransferOutcome(rng.Intn(5) == 0) },
			func(p *PeerStats) { p.RecordTransferOriginated(rng.Intn(2) == 0, rng.Intn(1<<20)) },
			func(p *PeerStats) { p.AddPendingTransfers(rng.Intn(5) - 2) },
			func(p *PeerStats) { p.SetCPUScore(rng.Float64() * 2) },
			func(p *PeerStats) {
				p.ObserveTransferRate(rng.Intn(1<<20), time.Duration(rng.Intn(5000))*time.Millisecond)
			},
			func(p *PeerStats) { p.ObservePetitionDelay(time.Duration(rng.Intn(900)) * time.Millisecond) },
			func(*PeerStats) { advance(time.Duration(rng.Intn(90)) * time.Minute) },
		}
		for step := 0; step < 300; step++ {
			ops[rng.Intn(len(ops))](r.Peer(names[rng.Intn(len(names))]))
			for _, n := range names {
				s := r.Peer(n).Snapshot()
				for _, pair := range [][2]float64{
					{s.PctMsgSession, s.PctMsgTotal},
					{s.PctTaskExecSession, s.PctTaskExecTotal},
					{s.PctTaskAcceptSession, s.PctTaskAcceptTotal},
					{s.PctFileSentSession, s.PctFileSentTotal},
					{s.PctCancelSession, s.PctCancelTotal},
				} {
					if pair[0] != pair[1] {
						t.Fatalf("seed %d step %d, %s: session %v, total %v in %+v", seed, step, n, pair[0], pair[1], s)
					}
				}
			}
		}
	}
}

func TestLastKHoursWindow(t *testing.T) {
	clock, advance := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	// Hour 0: failures.
	p.RecordMessage(false)
	p.RecordMessage(false)
	advance(3 * time.Hour)
	// Hour 3: successes.
	p.RecordMessage(true)
	p.RecordMessage(true)
	// Window of 2 hours sees only successes.
	if got := p.msgHourly.percentLast(clock(), 2, 100); got != 100 {
		t.Fatalf("last-2h = %v, want 100", got)
	}
	// A Snapshot's window of 24 hours sees everything: 2/4.
	if got := p.Snapshot().PctMsgLastK; got != 50 {
		t.Fatalf("last-24h = %v, want 50", got)
	}
}

func TestLastKHoursBucketExpiry(t *testing.T) {
	clock, advance := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	p.RecordMessage(false)
	// Far enough that the ring wraps and the bucket is re-stamped.
	advance(time.Duration(windowHours+5) * time.Hour)
	p.RecordMessage(true)
	if got := p.msgHourly.percentLast(clock(), windowHours, 100); got != 100 {
		t.Fatalf("expired bucket leaked: last-%dh = %v, want 100", windowHours, got)
	}
}

func TestTaskCriteria(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	p.RecordTaskOffer(true)
	p.RecordTaskOffer(true)
	p.RecordTaskOffer(false)
	p.RecordTaskExecution(true, 2.0)
	p.RecordTaskExecution(false, 0)
	s := p.Snapshot()
	if want := 100 * 2.0 / 3.0; s.PctTaskAcceptSession < want-0.01 || s.PctTaskAcceptSession > want+0.01 {
		t.Fatalf("accept = %v, want ~%.2f", s.PctTaskAcceptSession, want)
	}
	if s.PctTaskExecSession != 50 {
		t.Fatalf("exec = %v, want 50", s.PctTaskExecSession)
	}
	if s.SecondsPerUnit != 2.0 {
		t.Fatalf("SecondsPerUnit = %v, want 2", s.SecondsPerUnit)
	}
}

func TestFileCriteria(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	p.RecordFileSent(true)
	p.RecordFileSent(true)
	p.RecordFileSent(false)
	p.RecordTransferOutcome(false)
	p.RecordTransferOutcome(true) // one cancellation
	p.AddPendingTransfers(3)
	p.AddPendingTransfers(-1)
	s := p.Snapshot()
	if want := 100 * 2.0 / 3.0; s.PctFileSentSession < want-0.01 || s.PctFileSentSession > want+0.01 {
		t.Fatalf("files sent = %v", s.PctFileSentSession)
	}
	if s.PctCancelSession != 50 {
		t.Fatalf("cancelled = %v, want 50", s.PctCancelSession)
	}
	if s.PendingTransfers != 2 {
		t.Fatalf("pending = %v, want 2", s.PendingTransfers)
	}
}

func TestPendingTransfersNeverNegative(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	p.AddPendingTransfers(-5)
	if got := p.Snapshot().PendingTransfers; got != 0 {
		t.Fatalf("pending = %v, want clamped 0", got)
	}
}

func TestNeutralDefaultsForUnknownPeer(t *testing.T) {
	clock, _ := fixedClock(t0)
	s := NewPeerStats("ghost", clock).Snapshot()
	for name, v := range map[string]float64{
		"PctMsgSession":      s.PctMsgSession,
		"PctMsgTotal":        s.PctMsgTotal,
		"PctMsgLastK":        s.PctMsgLastK,
		"PctTaskExecSession": s.PctTaskExecSession,
		"PctTaskAcceptTotal": s.PctTaskAcceptTotal,
		"PctFileSentTotal":   s.PctFileSentTotal,
	} {
		if v != 100 {
			t.Errorf("%s = %v, want neutral 100", name, v)
		}
	}
	if s.PctCancelSession != 0 || s.PctCancelTotal != 0 {
		t.Errorf("cancel pct = %v/%v, want 0", s.PctCancelSession, s.PctCancelTotal)
	}
	if s.CPUScore != 1 {
		t.Errorf("CPUScore = %v, want default 1", s.CPUScore)
	}
	if s.SecondsPerUnit != 1 {
		t.Errorf("SecondsPerUnit = %v, want default 1", s.SecondsPerUnit)
	}
}

// TestSnapshotIntoSetsEveryField: the broker fills recycled candidate slots
// through SnapshotInto, so whatever a slot held before, every field — one
// added to Snapshot later included — must come out as Snapshot returns it.
func TestSnapshotIntoSetsEveryField(t *testing.T) {
	clock, advance := fixedClock(t0)
	busy := NewPeerStats("busy", clock)
	busy.RecordMessage(true)
	busy.RecordMessage(false)
	busy.SetQueues(3, 5)
	busy.RecordTaskOffer(true)
	busy.RecordTaskExecution(true, 2.5)
	busy.SetQueueLen(4)
	busy.SetReadyAt(t0.Add(time.Minute))
	busy.RecordFileSent(true)
	busy.RecordTransferOutcome(true)
	busy.RecordTransferOriginated(true, 1<<20)
	busy.AddPendingTransfers(2)
	busy.SetCPUScore(1.5)
	busy.ObserveTransferRate(1<<20, time.Second)
	busy.ObservePetitionDelay(40 * time.Millisecond)
	advance(3 * time.Hour)
	for _, p := range []*PeerStats{busy, NewPeerStats("ghost", clock)} {
		var dirty Snapshot
		v := reflect.ValueOf(&dirty).Elem()
		for i := 0; i < v.NumField(); i++ {
			switch f := v.Field(i); f.Kind() {
			case reflect.Float64:
				f.SetFloat(-7)
			case reflect.Int64:
				f.SetInt(-7)
			case reflect.String:
				f.SetString("stale")
			case reflect.Struct:
				f.Set(reflect.ValueOf(t0.Add(-time.Hour)))
			default:
				t.Fatalf("Snapshot.%s: a kind this test does not dirty", v.Type().Field(i).Name)
			}
		}
		p.SnapshotInto(&dirty, clock())
		if want := p.Snapshot(); dirty != want {
			t.Errorf("%s:\n got %+v\nwant %+v", p.Peer(), dirty, want)
		}
	}
}

func TestQueueGauges(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	p.SetQueues(2, 10)
	p.SetQueues(4, 20)
	s := p.Snapshot()
	if s.InboxNow != 4 || s.OutboxNow != 20 {
		t.Fatalf("now = %v/%v", s.InboxNow, s.OutboxNow)
	}
	if s.InboxAvg != 3 || s.OutboxAvg != 15 {
		t.Fatalf("avg = %v/%v, want 3/15", s.InboxAvg, s.OutboxAvg)
	}
}

func TestTransferRateEstimate(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	p.ObserveTransferRate(1_000_000, time.Second) // 1 MB/s
	if got := p.Snapshot().TransferRate; got != 1e6 {
		t.Fatalf("rate = %v, want 1e6", got)
	}
	p.ObserveTransferRate(0, time.Second)    // ignored
	p.ObserveTransferRate(100, -time.Second) // ignored
	if got := p.Snapshot().TransferRate; got != 1e6 {
		t.Fatalf("rate after bogus samples = %v, want unchanged", got)
	}
}

func TestPetitionDelayEstimate(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	p.ObservePetitionDelay(2 * time.Second)
	if got := p.Snapshot().PetitionDelay; got != 2*time.Second {
		t.Fatalf("petition delay = %v, want 2s", got)
	}
}

func TestReadyAtAndQueueLen(t *testing.T) {
	clock, _ := fixedClock(t0)
	p := NewPeerStats("sc1", clock)
	ready := t0.Add(time.Minute)
	p.SetReadyAt(ready)
	p.SetQueueLen(5)
	s := p.Snapshot()
	if !s.ReadyAt.Equal(ready) {
		t.Fatalf("ReadyAt = %v", s.ReadyAt)
	}
	if s.QueueLen != 5 {
		t.Fatalf("QueueLen = %v", s.QueueLen)
	}
}

func TestRegistryCreatesOnFirstUse(t *testing.T) {
	clock, _ := fixedClock(t0)
	r := NewRegistry(clock)
	a := r.Peer("a")
	if a == nil || r.Peer("a") != a {
		t.Fatal("Peer must return a stable instance")
	}
	r.Peer("b")
	names := r.Names()
	if len(names) != 2 || names[0] != "a" || names[1] != "b" {
		t.Fatalf("Names = %v", names)
	}
}

// TestRegistryCopiesNames: the broker creates a record from a name that is a
// substring of a whole decoded register frame, so the record and the map key
// must not share the caller's bytes, or the registry pins that frame for as
// long as it knows the peer.
func TestRegistryCopiesNames(t *testing.T) {
	clock, _ := fixedClock(t0)
	r := NewRegistry(clock)
	frame := "\x01p0007\x02addr"
	name := frame[1:6]
	p := r.Peer(name)
	if p.Peer() != name || r.Names()[0] != name {
		t.Fatalf("record %q, key %q, want %q", p.Peer(), r.Names()[0], name)
	}
	if unsafe.StringData(p.Peer()) == unsafe.StringData(name) || unsafe.StringData(r.Names()[0]) == unsafe.StringData(name) {
		t.Fatal("the registry shares the caller's name bytes")
	}
}

func TestRegistrySnapshotsSorted(t *testing.T) {
	clock, _ := fixedClock(t0)
	r := NewRegistry(clock)
	r.Peer("zeta").RecordMessage(true)
	r.Peer("alpha").RecordMessage(false)
	snaps := r.Snapshots()
	if len(snaps) != 2 || snaps[0].Peer != "alpha" || snaps[1].Peer != "zeta" {
		t.Fatalf("Snapshots = %+v", snaps)
	}
	if snaps[0].PctMsgSession != 0 || snaps[1].PctMsgSession != 100 {
		t.Fatal("snapshot data crossed peers")
	}
}

func TestConcurrentRecording(t *testing.T) {
	clock, _ := fixedClock(t0)
	r := NewRegistry(clock)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			p := r.Peer("shared")
			for j := 0; j < 200; j++ {
				p.RecordMessage(j%2 == 0)
				p.RecordFileSent(true)
				p.AddPendingTransfers(1)
				p.AddPendingTransfers(-1)
			}
		}()
	}
	wg.Wait()
	s := r.Peer("shared").Snapshot()
	if s.PctMsgSession != 50 {
		t.Fatalf("concurrent msg pct = %v, want 50", s.PctMsgSession)
	}
	if s.PendingTransfers != 0 {
		t.Fatalf("pending = %v, want 0", s.PendingTransfers)
	}
}

func TestPropertyRatioPercentBounds(t *testing.T) {
	f := func(oks []bool) bool {
		var r Ratio
		for _, ok := range oks {
			r.Record(ok)
		}
		p := r.PercentOr(50)
		return p >= 0 && p <= 100
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertySnapshotPercentagesBounded(t *testing.T) {
	clock, advance := fixedClock(t0)
	f := func(msgs, tasks, files []bool) bool {
		p := NewPeerStats("x", clock)
		for _, ok := range msgs {
			p.RecordMessage(ok)
			advance(time.Minute)
		}
		for _, ok := range tasks {
			p.RecordTaskOffer(ok)
			p.RecordTaskExecution(ok, 1)
		}
		for _, ok := range files {
			p.RecordFileSent(ok)
			p.RecordTransferOutcome(!ok)
		}
		s := p.Snapshot()
		for _, v := range []float64{
			s.PctMsgSession, s.PctMsgTotal, s.PctMsgLastK,
			s.PctTaskExecSession, s.PctTaskExecTotal,
			s.PctTaskAcceptSession, s.PctTaskAcceptTotal,
			s.PctFileSentSession, s.PctFileSentTotal,
			s.PctCancelSession, s.PctCancelTotal,
		} {
			if v < 0 || v > 100 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
