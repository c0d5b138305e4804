package core

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"peerlab/internal/stats"
)

// benchCandidates builds n candidates the way a broker's registry would hold
// them after some traffic: spread CPU scores, rates and delays, a few
// message and file records each, so no criterion is flat and scores tie
// only now and then.
func benchCandidates(n int) []Candidate {
	cands := make([]Candidate, n)
	for i := range cands {
		ps := stats.NewPeerStats(fmt.Sprintf("n%05d", i), func() time.Time { return now })
		ps.SetCPUScore(0.5 + float64(i%7)/4)
		ps.ObserveTransferRate(1_000_000+(i*7919)%9_000_000, time.Second)
		ps.ObservePetitionDelay(time.Duration(10+(i*31)%500) * time.Millisecond)
		for j := 0; j <= i%5; j++ {
			ps.RecordMessage(j%3 != 0)
			ps.RecordFileSent(true)
		}
		cands[i] = Candidate{Snapshot: ps.Snapshot()}
	}
	return cands
}

// benchRankers are the three models of Figure 6; quick-peer remembers eight
// of the candidates, as a user would.
func benchRankers(cands []Candidate) []Selector {
	remembered := map[string]time.Duration{}
	for i := 0; i < len(cands); i += len(cands) / 8 {
		remembered[cands[i].Snapshot.Peer] = time.Duration(i+1) * time.Millisecond
	}
	return []Selector{NewEconomic(EconomicConfig{}), NewSamePriority(), NewQuickPeer(remembered)}
}

var benchReq = Request{Kind: KindFileTransfer, SizeBytes: 2_000_000, Now: now}

var rankSink []string

// BenchmarkRank is the core layer's share of a selection miss, per model: a
// full ranking over a directory-sized candidate set, a ranking to depth 1
// (/top1), which is what the broker asks for when a request wants one peer,
// and one to depth 3 (/top3), the price of a short list.
func BenchmarkRank(b *testing.B) {
	for _, n := range []int{4096, 16384} {
		cands := benchCandidates(n)
		for _, r := range benchRankers(cands) {
			for _, depth := range []struct {
				suffix string
				k      int
			}{{"", 0}, {"/top1", 1}, {"/top3", 3}} {
				b.Run(fmt.Sprintf("%s/%d%s", r.Name(), n, depth.suffix), func(b *testing.B) {
					b.ReportAllocs()
					for i := 0; i < b.N; i++ {
						ranked, err := r.Rank(benchReq, cands, depth.k)
						if err != nil {
							b.Fatal(err)
						}
						rankSink = ranked
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(n), "ns/cand")
				})
			}
		}
	}
}

// bytesPerRun is what one call of f allocates, averaged over runs calls
// after a first one, measured the way testing.AllocsPerRun counts.
func bytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestRankAllocBudgets pins what a ranking allocates: keys, positions and
// names, three flat slices whatever the candidate count, in full and to
// depths 3 and 16 alike. A map sized by the candidates would show as a count
// that grows from 4 096 to 16 384 (a map that large is many tables), so equal
// counts at both sizes also say no such map is built. A ranking to depth 1 is held to bytes: the same few hundred
// at both sizes, nothing sized by the candidates, for every model — the data
// evaluator's score columns are its own, kept from call to call.
func TestRankAllocBudgets(t *testing.T) {
	const budget = 3
	small, large := benchCandidates(4096), benchCandidates(16384)
	for i, r := range benchRankers(small) {
		name := r.Name()
		rank := func(r Selector, cands []Candidate, k int) func() {
			return func() {
				if _, err := r.Rank(benchReq, cands, k); err != nil {
					t.Fatal(err)
				}
			}
		}
		rl := benchRankers(large)[i]
		atSmall, atLarge := testing.AllocsPerRun(5, rank(r, small, 0)), testing.AllocsPerRun(5, rank(rl, large, 0))
		if atSmall != atLarge || atSmall > budget {
			t.Errorf("%s: %v allocations to rank 4096 candidates, %v to rank 16384; budget %v at both",
				name, atSmall, atLarge, budget)
		}
		for _, k := range []int{3, 16} {
			atSmall, atLarge := testing.AllocsPerRun(5, rank(r, small, k)), testing.AllocsPerRun(5, rank(rl, large, k))
			if atSmall != budget || atLarge != budget {
				t.Errorf("%s: %v allocations to rank 4096 candidates to depth %d, %v to rank 16384; want %v at both",
					name, atSmall, k, atLarge, budget)
			}
		}
		top1Small, top1Large := bytesPerRun(5, rank(r, small, 1)), bytesPerRun(5, rank(rl, large, 1))
		if top1Small != top1Large || top1Small >= 1024 {
			t.Errorf("%s: %d bytes to rank 4096 candidates to depth 1, %d to rank 16384; budget under 1 KB at both",
				name, top1Small, top1Large)
		}
	}
}
