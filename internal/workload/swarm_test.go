package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
	"peerlab/internal/transfer"
)

// TestPairBytesMatchDense: after seeded credit sequences — the origin's row,
// pairs credited again and again, zero-byte credits, durations of zero and
// below — the swarm lists exactly the pairs a dense (holder, downloader)
// matrix holds bytes for, with their bytes, in the matrix's row-major order,
// and every holder's tit-for-tat unchoke set is the reference's over the
// dense matrix's rates.
func TestPairBytesMatchDense(t *testing.T) {
	for seed := int64(1); seed <= 48; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n, pieces := 1+rng.Intn(48), 1+rng.Intn(24)
		s := newSwarm(n, pieces)
		peers := make([]dissemPeer, n)
		refPeers := make([]*refPeer, n)
		live := make([]bool, n)
		for q := range peers {
			peers[q].label, live[q] = fmt.Sprintf("p%02d", q), true
			refPeers[q] = &refPeer{have: make([]bool, pieces)}
			for _, p := range rng.Perm(pieces)[:rng.Intn(pieces+1)] {
				s.deliver(q, p)
				refPeers[q].have[p] = true
				refPeers[q].got++
			}
		}
		// bytes and secs are the dense matrices, [h+1][q].
		bytes, secs := make([][]int64, n+1), make([][]float64, n+1)
		for row := range bytes {
			bytes[row], secs[row] = make([]int64, n), make([]float64, n)
		}
		// A small pool of pairs, the origin's among them, so that most
		// credits land on a pair credited before.
		pool := make([][2]int, 1+rng.Intn(3*n))
		for i := range pool {
			pool[i] = [2]int{rng.Intn(n+1) - 1, rng.Intn(n)}
		}
		pool[0][0] = -1
		zeroBytes, nonPositive := 0, 0
		for i := 1 + rng.Intn(300); i > 0; i-- {
			pr := pool[rng.Intn(len(pool))]
			b, d := int64(rng.Intn(4))*65536, float64(1+rng.Intn(4))
			switch rng.Intn(8) {
			case 0:
				d = 0 // inside one clock tick
			case 1:
				d = -0.25
			}
			if b == 0 {
				zeroBytes++
			}
			if d <= 0 {
				nonPositive++
			}
			bytes[pr[0]+1][pr[1]] += b
			secs[pr[0]+1][pr[1]] += d
			s.credit(pr[0], pr[1], b, d)
		}
		var want []PairBytes
		for row := range bytes {
			for q, b := range bytes[row] {
				if b > 0 {
					pair := PairBytes{To: peers[q].label, Bytes: b}
					if row > 0 {
						pair.From = peers[row-1].label
					}
					want = append(want, pair)
				}
			}
		}
		if got := s.pairBytes(peers); !reflect.DeepEqual(got, want) {
			t.Fatalf("seed %d (%d peers, %d zero-byte and %d non-positive credits): pairs\n got %v\nwant %v",
				seed, n, zeroBytes, nonPositive, got, want)
		}

		rate := func(dl, h int) float64 {
			b, d := bytes[h+1][dl], secs[h+1][dl]
			if b == 0 {
				return 0
			}
			if d <= 0 {
				d = 1e-9
			}
			return float64(b) / d
		}
		all := make([]bool, pieces)
		for p := range all {
			all[p] = true
		}
		for h := -1; h < n; h++ {
			has := all
			if h >= 0 {
				has = refPeers[h].have
			}
			want := sortedKeys(refUnchokeSet("tft", h, 0, seed, has, refPeers, func(int) bool { return true }, rate, pieces))
			got := s.choke("tft", h, 0, seed, live)
			if len(want)+len(got) > 0 && !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d: holder %d unchokes %v, reference %v", seed, h, got, want)
			}
		}
	}
}

// TestDisseminateReadsLivenessPerHolder drives the engine through Run under
// a conductor and takes a peer down between two holders' piece reports of
// one round: no report published after the leave names it, however stale the
// round's first liveness read. The peer's rejoin two seconds later must reach
// the engine too: later reports name it again, and it completes.
//
// A watcher process polls the broker's directory every millisecond. The
// first report of a downloader (its first pieces attribute, so a change the
// directory shows) triggers the leave: the driver is then waiting for that
// report's answer, 15 ms away, and the round's other holders report after
// it. With choke=none every interested live peer is unchoked, and the peer
// taken down holds nothing yet, so it is interested in every holder.
func TestDisseminateReadsLivenessPerHolder(t *testing.T) {
	const (
		seed   = 11
		ttl    = 24 * time.Hour
		leaver = "h1"
	)
	net := simnet.New(seed)
	ctl := net.MustAddNode("control", execProfile())
	broker, err := overlay.NewBroker(ctl, overlay.BrokerConfig{AdvTTL: ttl, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	control := overlay.NewClient(ctl, broker.Addr(), overlay.ClientConfig{CPUScore: 2})
	labels := []string{"a1", "b1", "c1", "d1", "e1", "f1", "g1", leaver}
	nodes := make(map[string]*simnet.Node, len(labels))
	var joins []scenario.ChurnEvent
	for _, l := range labels {
		nodes[l] = net.MustAddNode(l, execProfile())
		joins = append(joins, ev(0, l, scenario.ChurnJoin))
	}
	c := NewConductor(ctl, NewSchedule(joins), 0, 0, func(label string) (*overlay.Client, error) {
		return overlay.BootPeer(nodes[label], broker.Addr(), overlay.ClientConfig{})
	})
	dyn := &Dynamics{Conductor: c, labels: labels, seed: seed}
	w := DisseminateWith(len(labels), Dissemination{Pick: "rarest", Choke: "none"})
	flows := w.Flows(labels, seed)
	for i := range flows {
		flows[i].SizeBytes, flows[i].Parts = 2*transfer.Mb, 8
	}

	type report struct {
		at             time.Time // when the broker published it
		name, unchoked string
	}
	var (
		reports        []report
		leftAt, backAt time.Time
		out            Outcome
		runErr         error
	)
	names := func(unchoked string) bool { return slices.Contains(strings.Split(unchoked, ","), leaver) }
	net.Run(func() {
		if err := control.Start(); err != nil {
			t.Errorf("control start: %v", err)
			return
		}
		if err := c.BootInitial(); err != nil {
			t.Errorf("BootInitial: %v", err)
			return
		}
		done := false
		ctl.Go(func() {
			last := make(map[string]jxta.Advertisement)
			for !done {
				ctl.Sleep(time.Millisecond)
				if !leftAt.IsZero() && backAt.IsZero() && ctl.Now().Sub(leftAt) >= 2*time.Second {
					c.apply(ev(0, leaver, scenario.ChurnJoin))
					backAt = ctl.Now()
				}
				for _, adv := range broker.Advertisements() {
					prev, seen := last[adv.Name]
					last[adv.Name] = adv
					if adv.Attr(jxta.AttrPieces) == "" || seen && prev.Expires.Equal(adv.Expires) && slices.Equal(prev.Attrs, adv.Attrs) {
						continue // a registration, or nothing new
					}
					// A piece report that changed the entry is published
					// under a fresh lease: its instant is the lease's start.
					r := report{adv.Expires.Add(-ttl), adv.Name, adv.Attr(jxta.AttrUnchoked)}
					reports = append(reports, r)
					if leftAt.IsZero() && r.name != ctl.Name() {
						if !names(r.unchoked) {
							t.Errorf("%s's first report unchokes %q, not %s: the test takes down no peer a later holder would name", r.name, r.unchoked, leaver)
						}
						c.apply(ev(0, leaver, scenario.ChurnLeave))
						leftAt = ctl.Now()
					}
				}
			}
		})
		env := Env{Host: ctl, Control: control, HostOf: identity, LabelOf: identity, ExcludeSinks: []string{ctl.Name()}, Logf: t.Logf}
		out, runErr = Run(env, dyn, w, flows, seed)
		done = true
	})
	if runErr != nil {
		t.Fatal(runErr)
	}
	if leftAt.IsZero() || backAt.IsZero() {
		t.Fatalf("the watcher took %s down at %v and back at %v: the run ended first", leaver, leftAt, backAt)
	}
	between, after := 0, 0
	for _, r := range reports {
		switch {
		case r.at.After(leftAt) && !r.at.After(backAt):
			between++
			if names(r.unchoked) {
				t.Errorf("%s's report at %v, %v after %s left, unchokes it: %q", r.name, r.at, r.at.Sub(leftAt), leaver, r.unchoked)
			}
		case r.at.After(backAt) && names(r.unchoked):
			after++
		}
	}
	if between < 3 {
		t.Errorf("%d reports landed while %s was down, want at least the round's 3 later holders", between, leaver)
	}
	if after == 0 {
		t.Errorf("no report after %s rejoined at %v unchokes it", leaver, backAt)
	}
	if got := out.Results[len(labels)-1]; got.Sink != leaver || got.Pieces != 8 {
		t.Errorf("%s's flow ended with %d of 8 pieces (sink %q, err %q)", leaver, got.Pieces, got.Sink, got.Err)
	}
}

// TestSwarmAllocBudgets pins what the pair rows cost: crediting a pair that
// moved bytes before allocates nothing, and a 4 096-peer, 16-piece swarm
// starts in under 4 MiB, where dense pair matrices took 512 MiB.
func TestSwarmAllocBudgets(t *testing.T) {
	s, _, _ := benchSwarm(512, 16)
	var credited [][2]int
	for row, sent := range s.sent {
		for _, p := range sent {
			credited = append(credited, [2]int{row - 1, p.peer})
		}
	}
	if len(credited) == 0 {
		t.Fatal("the bench swarm credited no pair")
	}
	i := 0
	if got := testing.AllocsPerRun(2*len(credited), func() {
		pr := credited[i%len(credited)]
		s.credit(pr[0], pr[1], 65536, 1)
		i++
	}); got != 0 {
		t.Errorf("crediting a pair credited before allocates %v times, want 0", got)
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	big := newSwarm(4096, 16)
	runtime.ReadMemStats(&after)
	runtime.KeepAlive(big)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 4<<20 {
		t.Errorf("newSwarm(4096, 16) allocates %d bytes, budget 4 MiB", got)
	} else {
		t.Logf("newSwarm(4096, 16) allocates %d bytes", got)
	}
}
