package overlay

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/simnet"
)

// rankDeploy boots a slice with spread-out profiles so rankings are
// non-trivial, and returns after the network quiesced.
func rankDeploy(t *testing.T) *deployment {
	t.Helper()
	profiles := map[string]simnet.Profile{}
	names := []string{"ra", "rb", "rc", "rd", "re", "rf"}
	for i, n := range names {
		p := clientProfile()
		p.CPUScore = 1 + 0.5*float64(i)
		p.Bandwidth = 1e6 * float64(1+i)
		profiles[n] = p
	}
	d := deployShards(t, 3, profiles)
	d.net.Run(func() {
		d.startAll(t)
		for _, c := range d.clients {
			if err := c.ReportStats(); err != nil {
				t.Errorf("report %s: %v", c.Name(), err)
			}
		}
	})
	return d
}

// mustMatchReference serves req and fails unless it equals refSelect.
func mustMatchReference(t *testing.T, b *Broker, req selectReq) []string {
	t.Helper()
	gotP, gotErr := b.selectPeers(req)
	wantP, wantErr := refSelect(b, req)
	if !errors.Is(gotErr, wantErr) || !slices.Equal(gotP, wantP) {
		t.Fatalf("%s/%v: served %v (%v), reference %v (%v)", req.Model, req.Exclude, gotP, gotErr, wantP, wantErr)
	}
	return gotP
}

// TestSelectionMatchesReference proves the served selection equals refSelect
// across models, exclusions, truncation, stats mutation, directory mutation
// and time shift — the exactness claim the golden figures rest on.
func TestSelectionMatchesReference(t *testing.T) {
	d := rankDeploy(t)
	b := d.broker
	eco := selectReq{Model: "economic", Kind: 1, SizeBytes: 5 << 20}
	same := selectReq{Model: "same-priority", Kind: 1, SizeBytes: 5 << 20}

	ranked := mustMatchReference(t, b, eco)
	if len(ranked) != 6 {
		t.Fatalf("economic ranked %d peers, want 6", len(ranked))
	}
	mustMatchReference(t, b, same)

	// Exclusion: excluding the winner must shift everyone up exactly as
	// the reference ranks the remainder.
	excl := eco
	excl.Exclude = []string{ranked[0], ranked[2]}
	exP := mustMatchReference(t, b, excl)
	if len(exP) != 4 || exP[0] != ranked[1] {
		t.Fatalf("exclusion: got %v from full ranking %v", exP, ranked)
	}
	// Excluding everyone must surface the empty ranking's sentinel.
	allOut := eco
	allOut.Exclude = append([]string{}, ranked...)
	mustMatchReference(t, b, allOut)
	if _, err := b.selectPeers(allOut); !errors.Is(err, core.ErrNoCandidates) {
		t.Fatalf("exclude-all err = %v, want ErrNoCandidates", err)
	}
	// Truncation rides on top of filtration.
	top := excl
	top.MaxResults = 2
	if topP := mustMatchReference(t, b, top); len(topP) != 2 {
		t.Fatalf("MaxResults: got %v", topP)
	}

	// A stats mutation must invalidate: push the winner's ready time out an
	// hour (its completion estimate collapses) and the indexed path must
	// re-rank exactly as the scan does.
	b.Registry().Peer(ranked[0]).SetReadyAt(b.host.Now().Add(time.Hour))
	reP := mustMatchReference(t, b, eco)
	if reflect.DeepEqual(reP, ranked) {
		t.Fatalf("ranking unchanged after delaying %s by an hour: %v", ranked[0], reP)
	}
	mustMatchReference(t, b, same)

	// A directory mutation (new registration) must invalidate too.
	d.net.Run(func() {
		if _, err := BootPeer(d.net.MustAddNode("rz", clientProfile()), b.Addr(), ClientConfig{CPUScore: 9}); err != nil {
			t.Errorf("boot rz: %v", err)
		}
	})
	grownP := mustMatchReference(t, b, eco)
	if len(grownP) != 7 {
		t.Fatalf("after growth ranked %d peers, want 7", len(grownP))
	}
	mustMatchReference(t, b, same)

	// Time shift inside the hour: the table is kept and only the request's
	// instant moves — both must still equal the reference.
	d.net.Run(func() { d.nodes["broker0"].Sleep(10 * time.Second) })
	mustMatchReference(t, b, eco)
	mustMatchReference(t, b, same)
}

// TestBlindSelectionRotates: the blind model's round-robin cursor advances
// on every selection, though each ranks the same table — consecutive
// selections rotate.
func TestBlindSelectionRotates(t *testing.T) {
	d := rankDeploy(t)
	req := selectReq{Model: "blind", Kind: 1}
	first, err := d.broker.selectPeers(req)
	if err != nil {
		t.Fatal(err)
	}
	second, err := d.broker.selectPeers(req)
	if err != nil {
		t.Fatal(err)
	}
	if reflect.DeepEqual(first, second) {
		t.Fatalf("blind selection did not rotate: %v twice", first)
	}
	if first[1] != second[0] {
		t.Fatalf("blind rotation broken: %v then %v", first, second)
	}
}

// TestExclusionListsDoNotCollide: two exclusion lists that join to one
// string are different requests. A memo keyed on the joined list served the
// second the first one's ranking, both excluded peers in it.
func TestExclusionListsDoNotCollide(t *testing.T) {
	b := rankDeploy(t).broker
	for _, model := range []string{"economic", "same-priority"} {
		for _, exclude := range [][]string{{"ra\x00rb"}, {"ra", "rb"}} {
			req := selectReq{Model: model, Kind: 1, SizeBytes: 5 << 20, Exclude: exclude}
			got, err := b.selectPeers(req)
			want, wantErr := refSelect(b, req)
			if err != nil || wantErr != nil || !slices.Equal(got, want) {
				t.Fatalf("%s excluding %q: served %v (%v), want %v (%v)", model, exclude, got, err, want, wantErr)
			}
		}
	}
}

// TestSelectionFollowsDirectory: a selection reads the live directory as of
// its instant. Six peers are published straight into the broker with
// one-minute leases and their statistics are set once, so between the steps
// below only the directory moves — a renewal, a pipe advertisement and a
// discover of that kind, a lapsed lease, a Restart and a re-publish — and
// every selection must equal refSelect, at one shard and at several.
func TestSelectionFollowsDirectory(t *testing.T) {
	for shards := 1; shards <= 3; shards++ {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			n := simnet.New(21)
			host := n.MustAddNode("broker0", simnet.DefaultProfile())
			b, err := NewBroker(host, BrokerConfig{Shards: shards, AdvTTL: time.Minute})
			if err != nil {
				t.Fatal(err)
			}
			names := []string{"da", "db", "dc", "dd", "de", "df"}
			for i, name := range names {
				ps := b.Registry().Peer(name)
				ps.SetCPUScore(0.5 + float64(i)/2)
				ps.ObserveTransferRate((6-i)*1_000_000, time.Second)
			}
			publish := func(names ...string) {
				for _, name := range names {
					b.publish(b.shardOf(name), testAdv(name))
				}
			}
			// A pipe advertisement under a name no peer has: a selection
			// that ranked it would name it.
			pipeAdv := jxta.Advertisement{Kind: jxta.AdvPipe, ID: jxta.NewID("pipe", "dp"), Name: "dp"}
			check := func(step string, live int) {
				t.Helper()
				for _, model := range []string{"economic", "same-priority"} {
					req := selectReq{Model: model, Kind: byte(core.KindFileTransfer), SizeBytes: 5 << 20}
					if got := mustMatchReference(t, b, req); len(got) != live || slices.Contains(got, pipeAdv.Name) {
						t.Fatalf("after %s: %s selected %v, want %d live peers", step, model, got, live)
					}
				}
			}
			n.Run(func() {
				publish(names...)
				check("publish", 6)
				host.Sleep(30 * time.Second)
				publish(names[3:]...)
				check("a renewal", 6)
				// The whole-kind merge switches to pipes and back: once
				// beside a directory change, once alone.
				b.publish(b.shardOf(pipeAdv.Name), pipeAdv)
				b.directoryReply(jxta.AdvPipe)
				check("a pipe advertisement and a pipe discover", 6)
				b.directoryReply(jxta.AdvPipe)
				check("a pipe discover", 6)
				host.Sleep(40 * time.Second) // the first three leases lapsed at 60 s
				check("a lapsed lease", 3)
				b.Restart()
				check("Restart", 0)
				publish(names[:2]...)
				check("a re-publish", 2)
			})
		})
	}
}

// TestSelectionFollowsMessageWindow: the last-24-hours message criterion
// moves with the clock alone. pa and pb each have one failed message, pb's
// twelve hours older; while both failures are in the window they tie and pa
// ranks first by name, and from the hour pb's leaves it pb ranks first. No
// statistic or lease changes between the two selections.
func TestSelectionFollowsMessageWindow(t *testing.T) {
	n := simnet.New(21)
	host := n.MustAddNode("broker0", simnet.DefaultProfile())
	b, err := NewBroker(host, BrokerConfig{AdvTTL: 48 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	req := selectReq{Model: "same-priority", Kind: byte(core.KindFileTransfer), SizeBytes: 5 << 20}
	var before, after []string
	n.Run(func() {
		for _, name := range []string{"pa", "pb"} {
			b.publish(b.shardOf(name), testAdv(name))
		}
		host.Sleep(30 * time.Minute)
		b.Registry().Peer("pb").RecordMessage(false)
		leaves := host.Now().Truncate(time.Hour).Add(24 * time.Hour) // the first hour without pb's failure
		host.Sleep(12 * time.Hour)
		b.Registry().Peer("pa").RecordMessage(false)
		host.Sleep(leaves.Add(-time.Second).Sub(host.Now()))
		before = mustMatchReference(t, b, req)
		host.Sleep(time.Second)
		after = mustMatchReference(t, b, req)
	})
	if !slices.Equal(before, []string{"pa", "pb"}) || !slices.Equal(after, []string{"pb", "pa"}) {
		t.Fatalf("selected %v a second before pb's failure left the window and %v at that hour, want [pa pb] then [pb pa]", before, after)
	}
}

// TestConcurrentSelections: realnet brokers serve selections concurrently,
// beside statistics writes and renewals. Every selection must come back
// whole — MaxResults distinct names, the requester not among them — and
// once the writer stops, a selection must equal refSelect. Run it under
// the race detector: two blind selections at once share one cursor.
func TestConcurrentSelections(t *testing.T) {
	n := simnet.New(21)
	host := n.MustAddNode("broker0", simnet.DefaultProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for i := 0; i < 40; i++ {
		name := fmt.Sprintf("cp%02d", i)
		names = append(names, name)
		b.publish(b.shardOf(name), testAdv(name))
		b.Registry().Peer(name).ObserveTransferRate((1+i%7)*1_000_000, time.Second)
	}
	stop := make(chan struct{})
	var writer, readers sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			name := names[i%len(names)]
			b.Registry().Peer(name).RecordFileSent(i%3 > 0)
			b.publish(b.shardOf(name), testAdv(name))
		}
	}()
	for r, model := range []string{"economic", "same-priority", "blind", "blind"} {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for i := 0; i < 50; i++ {
				from := names[(7*r+i)%len(names)]
				got, err := b.selectPeers(selectReq{Model: model, Kind: byte(core.KindFileTransfer), SizeBytes: 5 << 20, MaxResults: 5, Exclude: []string{from}})
				distinct := slices.Compact(slices.Sorted(slices.Values(got)))
				if err != nil || len(got) != 5 || len(distinct) != 5 || slices.Contains(got, from) {
					t.Errorf("%s excluding %s: %v (%v)", model, from, got, err)
					return
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
	mustMatchReference(t, b, selectReq{Model: "same-priority", Kind: byte(core.KindFileTransfer), SizeBytes: 5 << 20})
}

// fullRanking is the model's ranking of every candidate, best first.
func fullRanking(r core.Ranker, req core.Request, cands []core.Candidate) ([]string, error) {
	return r.Rank(req, cands, 0)
}

// refSelect is what a selection must return, derived without the candidate
// table: every advertised peer snapshotted afresh, the model's full ranking
// over them — the excluded names filtered out of it for the economic model,
// removed from the candidate set for the others — truncated to MaxResults.
func refSelect(b *Broker, req selectReq) (peers []string, err error) {
	var model core.Ranker
	if core.UsesPreferences(req.Model) {
		model = core.NewUserPreference(req.Preferred)
	} else {
		model = b.selectors[req.Model].(core.Ranker)
	}
	filter := req.Model == "economic"
	var cands []core.Candidate
	for _, a := range b.Advertisements(jxta.AdvPeer) {
		if filter || !slices.Contains(req.Exclude, a.Name) {
			cands = append(cands, core.Candidate{Snapshot: b.Registry().Peer(a.Name).Snapshot()})
		}
	}
	creq := core.Request{Kind: core.RequestKind(req.Kind), SizeBytes: req.SizeBytes, WorkUnits: req.WorkUnits, Now: b.host.Now()}
	if peers, err = fullRanking(model, creq, cands); err != nil {
		return nil, err
	}
	if filter {
		peers = slices.DeleteFunc(peers, func(p string) bool { return slices.Contains(req.Exclude, p) })
	}
	if len(peers) == 0 {
		return nil, core.ErrNoCandidates
	}
	if req.MaxResults > 0 && req.MaxResults < len(peers) {
		peers = peers[:req.MaxResults]
	}
	return peers, nil
}

// selectionCoverage counts the program steps the oracle insists on.
type selectionCoverage struct {
	selections, removedBest, sameInstantRepeats int
}

// checkSelectionProgram runs a seeded program against a broker of the given
// shard count, about 40 peers with spread profiles: selections under four
// models with exclusions and truncation, statistics reports, registrations
// and clock advances (zero in some steps, so a request shape recurs at one
// instant with other exclusions). Every selection must equal refSelect.
func checkSelectionProgram(t *testing.T, seed int64, shards, steps int, cov *selectionCoverage) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	profiles := map[string]simnet.Profile{}
	for i := 0; i < 40; i++ {
		p := clientProfile()
		p.CPUScore = 0.5 + float64(rng.Intn(8))/4
		p.Bandwidth = 1e6 * float64(1+rng.Intn(10))
		profiles[fmt.Sprintf("sp%02d", i)] = p
	}
	d := deployShards(t, shards, profiles)
	b := d.broker
	var names []string
	for name := range profiles {
		names = append(names, name)
	}
	slices.Sort(names)
	d.net.Run(func() {
		for _, name := range names {
			if err := d.clients[name].Start(); err != nil {
				t.Errorf("start %s: %v", name, err)
			}
		}
	})

	// report applies one load or transfer report to a peer, as the broker's
	// handlers would.
	report := func(peer string) {
		ps := b.Registry().Peer(peer)
		switch rng.Intn(5) {
		case 0:
			ps.ObserveTransferRate(1e5+rng.Intn(9e6), time.Second)
		case 1:
			ps.ObservePetitionDelay(time.Duration(1+rng.Intn(800)) * time.Millisecond)
		case 2:
			ps.SetReadyAt(b.host.Now().Add(time.Duration(rng.Intn(90)-30) * time.Second))
		case 3:
			ps.RecordFileSent(rng.Intn(4) > 0)
		default:
			ps.RecordMessage(rng.Intn(3) > 0)
		}
	}
	for _, name := range names {
		if rng.Intn(3) > 0 {
			report(name)
		}
	}

	models := []string{"economic", "same-priority", "quick-peer", "user-preference"}
	shapes := []selectReq{
		{Kind: byte(core.KindFileTransfer), SizeBytes: 5 << 20},
		{Kind: byte(core.KindTask), WorkUnits: 30},
	}
	var prev selectReq
	var prevAt time.Time
	prevStep := -2 // no selection yet
	for step := 0; step < steps; step++ {
		switch op := rng.Intn(20); {
		case op < 11: // a selection
			req := shapes[rng.Intn(len(shapes))]
			req.Model = models[rng.Intn(len(models))]
			repeat := prevStep == step-1 && rng.Intn(2) == 0
			if repeat {
				req = prev
			}
			req.MaxResults = rng.Intn(4)
			if core.UsesPreferences(req.Model) && !repeat {
				for j := rng.Intn(6); j > 0; j-- {
					req.Preferred = append(req.Preferred, names[rng.Intn(len(names))])
				}
				req.Preferred = append(req.Preferred, "gone.peer")
			}
			bare := req
			bare.Exclude, bare.MaxResults = nil, 4
			top, _ := refSelect(b, bare)
			req.Exclude = nil
			switch rng.Intn(3) {
			case 0: // the best few, in order
				req.Exclude = append(req.Exclude, top[:rng.Intn(len(top)+1)]...)
			case 1: // a mix of the best, anyone and a stranger
				for j := 1 + rng.Intn(4); j > 0; j-- {
					switch rng.Intn(3) {
					case 0:
						req.Exclude = append(req.Exclude, top[rng.Intn(len(top))])
					case 1:
						req.Exclude = append(req.Exclude, names[rng.Intn(len(names))])
					default:
						req.Exclude = append(req.Exclude, "absent.peer")
					}
				}
			}
			if k := req.MaxResults; k > 0 && k <= len(top) && !slices.ContainsFunc(top[:k], func(p string) bool { return !slices.Contains(req.Exclude, p) }) {
				cov.removedBest++
			}
			if repeat && prevAt.Equal(b.host.Now()) && !slices.Equal(prev.Exclude, req.Exclude) {
				cov.sameInstantRepeats++
			}
			cov.selections++
			gotP, gotErr := b.selectPeers(req)
			wantP, wantErr := refSelect(b, req)
			if (gotErr == nil) != (wantErr == nil) || !errors.Is(gotErr, wantErr) && wantErr != nil ||
				!slices.Equal(gotP, wantP) {
				t.Fatalf("seed %d, %d shards, step %d: %+v\nserved (%v, %v)\nreference (%v, %v)",
					seed, shards, step, req, gotP, gotErr, wantP, wantErr)
			}
			prev, prevAt, prevStep = req, b.host.Now(), step
		case op < 15: // a statistics report
			report(names[rng.Intn(len(names))])
		case op < 16: // a registration
			name := fmt.Sprintf("sp%02d", len(names))
			p := clientProfile()
			p.CPUScore = 0.5 + float64(rng.Intn(8))/4
			d.net.Run(func() {
				if _, err := BootPeer(d.net.MustAddNode(name, p), b.Addr(), ClientConfig{CPUScore: p.CPUScore}); err != nil {
					t.Errorf("boot %s: %v", name, err)
				}
			})
			names = append(names, name)
		default: // a clock advance, none at all in a third of them
			if dt := time.Duration(rng.Intn(3)) * time.Duration(1+rng.Intn(20)) * time.Second; dt > 0 {
				d.net.Run(func() { d.nodes["broker0"].Sleep(dt) })
			}
		}
	}
}

// TestSelectionMatchesFullRanking is the oracle for the selection path:
// seeded programs on one- and four-shard brokers, every selection compared
// with the model's full ranking over a fresh snapshot of the directory.
func TestSelectionMatchesFullRanking(t *testing.T) {
	var cov selectionCoverage
	for seed := int64(1); seed <= 3; seed++ {
		for _, shards := range []int{1, 4} {
			checkSelectionProgram(t, seed, shards, 300, &cov)
		}
	}
	t.Logf("coverage: %+v", cov)
	if cov.removedBest < 5 || cov.sameInstantRepeats < 5 {
		t.Fatalf("the programs excluded the k best in %d selections and repeated a shape at one instant with other exclusions in %d; want at least 5 of each",
			cov.removedBest, cov.sameInstantRepeats)
	}
}

// rankBroker registers the given number of peers, with spread statistics, on
// a broker of the given shard count, and returns the broker and their names.
func rankBroker(tb testing.TB, peers, shards int) (*Broker, []string) {
	tb.Helper()
	host := simnet.New(21).MustAddNode("broker0", simnet.DefaultProfile())
	br, err := NewBroker(host, BrokerConfig{Shards: shards, CacheLimit: 2 * peers})
	if err != nil {
		tb.Fatal(err)
	}
	names := make([]string, peers)
	for i := range names {
		name := fmt.Sprintf("n%05d.bench.slice.peerlab", i)
		names[i] = name
		br.publish(br.shardOf(name), jxta.Advertisement{Kind: jxta.AdvPeer, ID: jxta.NewID("peer", name), Name: name, Addr: name + "/transfer"})
		ps := br.registry.Peer(name)
		ps.SetCPUScore(0.5 + float64(i%7)/4)
		ps.ObserveTransferRate(1_000_000+(i*7919)%9_000_000, time.Second)
		if i%3 == 0 {
			ps.RecordMessage(i%2 == 0)
		}
	}
	return br, names
}

// churnStep is what arrives between two selections under churn: a lease
// renewal (when renew is set) and a statistics write, both from peer i.
func churnStep(br *Broker, names []string, i int, renew bool) string {
	from := names[(i*31)%len(names)]
	sh := br.shardOf(from)
	if renew {
		adv, _ := sh.Lookup(jxta.NewID("peer", from))
		br.publish(sh, adv)
	}
	br.registry.Peer(from).RecordFileSent(true)
	return from
}

// TestRenewalThenSelectAllocs pins the churn shape as a budget: 1 024 peers
// on 4 shards, a lease renewal and a statistics write between selections.
// The renewal merges the directory again into the buffers the broker keeps
// and the write rebuilds the candidate table in place, so such a selection
// allocates no more than one at an unchanged directory.
func TestRenewalThenSelectAllocs(t *testing.T) {
	br, names := rankBroker(t, 1024, 4)
	req := func(from string) selectReq {
		return selectReq{Model: "economic", Kind: byte(core.KindFileTransfer), SizeBytes: 2 << 20, MaxResults: 1, Exclude: []string{from}}
	}
	step := 0
	afterRenewal := func() {
		step++
		if _, err := br.selectPeers(req(churnStep(br, names, step, true))); err != nil {
			t.Fatal(err)
		}
	}
	afterRenewal() // grows the merge, the table and the scratch copy
	warm := testing.AllocsPerRun(50, func() {
		if _, err := br.selectPeers(req(names[0])); err != nil {
			t.Fatal(err)
		}
	})
	churn := testing.AllocsPerRun(50, afterRenewal)
	if churn > warm && !underRace() {
		t.Errorf("a selection after a renewal and a statistics write: %v allocations, at an unchanged directory %v", churn, warm)
	}
	t.Logf("allocations per selection: %v unchanged, %v after a renewal", warm, churn)
}

// BenchmarkRankBuild is the broker's selection miss path at the size of the
// swarm-4096 benchmark: 4 096 peers on 8 shards, and one statistics report
// between selections, so every selection finds the candidate table stale and
// rebuilds it — a snapshot per candidate — then copies it minus the requester
// and ranks the copy. The renewal case adds a lease renewal to each report,
// so the rebuild merges the directory again first.
func BenchmarkRankBuild(b *testing.B) {
	const peers = 4096
	br, names := rankBroker(b, peers, 8)
	for _, bc := range []struct {
		name, model string
		renew       bool
	}{{"economic", "economic", false}, {"same-priority", "same-priority", false}, {"renewal", "economic", true}} {
		b.Run(bc.name, func(b *testing.B) {
			b.ReportAllocs()
			selectFrom := func(i int) {
				from := churnStep(br, names, i, bc.renew)
				req := selectReq{Model: bc.model, Kind: byte(core.KindFileTransfer), SizeBytes: 2 << 20, MaxResults: 1, Exclude: []string{from}}
				if _, err := br.selectPeers(req); err != nil {
					b.Fatal(err)
				}
			}
			// The first selection grows the table and the scratch copy; a busy
			// broker has both at full size.
			selectFrom(0)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				selectFrom(i)
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/peers, "ns/cand")
		})
	}
}
