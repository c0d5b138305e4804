package workload

import (
	"fmt"
	"math/rand"
	"strconv"
	"strings"
	"testing"

	"peerlab/internal/jxta"
)

// benchSwarm builds a swarm in the middle of a download, from a fixed seed:
// every peer holds a random share of the pieces and has a short history of
// credited deliveries, everyone is up, and the directory carries each
// holder's inventory and the unchoke set it would choose now. It returns the
// swarm, the liveness snapshot and the holders.
func benchSwarm(n, pieces int) (*swarm, []bool, []int) {
	rng := rand.New(rand.NewSource(512))
	s := newSwarm(n, pieces)
	live := make([]bool, n)
	hosts := make([]string, n)
	hostIdx := make(map[string]int, n)
	for q := range live {
		live[q], hosts[q] = true, fmt.Sprintf("sc%04d.example", q)
		hostIdx[hosts[q]] = q
		for _, p := range rng.Perm(pieces)[:rng.Intn(pieces+1)] {
			s.deliver(q, p)
		}
		for i := rng.Intn(6); i > 0; i-- {
			s.credit(rng.Intn(n+1)-1, q, int64(1+rng.Intn(2))*65536, float64(int(1)<<rng.Intn(3)))
		}
	}
	holders := []int{-1}
	for q := 0; q < n; q++ {
		if s.got[q+1] > 0 {
			holders = append(holders, q)
		}
	}
	var advs []jxta.Advertisement
	for _, h := range holders {
		var have, unchoked []string
		for p := range bitsOf(s.inv(h)) {
			have = append(have, strconv.Itoa(p))
		}
		for _, q := range s.choke("tft", h, 0, 1, live) {
			unchoked = append(unchoked, hosts[q])
		}
		name := "control.example"
		if h >= 0 {
			name = hosts[h]
		}
		advs = append(advs, jxta.Advertisement{Kind: jxta.AdvPeer, Name: name, Attrs: []jxta.Attr{
			{Key: jxta.AttrPieces, Value: strings.Join(have, ",")},
			{Key: jxta.AttrUnchoked, Value: strings.Join(unchoked, ",")},
		}})
	}
	s.readDirectory(advs, "control.example", hostIdx)
	return s, live, holders
}

var (
	chokeSink []int
	planSink  []roundAssign
)

// BenchmarkChokeRound is one holder's tit-for-tat choke decision over a
// 512-peer, 16-piece swarm (the dissem-512 shape): the interest test, the
// ranking and the optimistic draw. ns/peer is per neighbour the decision
// reads.
func BenchmarkChokeRound(b *testing.B) {
	const n = 512
	s, live, holders := benchSwarm(n, 16)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		chokeSink = s.choke("tft", holders[i%len(holders)], i/len(holders), 1, live)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/peer")
}

// BenchmarkPlanRound is one round's planning over the same swarm's
// directory, rarest-first: ns/peer is per downloader planned for.
func BenchmarkPlanRound(b *testing.B) {
	const n = 512
	s, live, _ := benchSwarm(n, 16)
	d := Dissemination{Pick: "rarest", Choke: "tft"}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		planSink = s.planRound(d, 1, live)
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/peer")
}

// TestChokeRoundAllocBudget pins what a warm round allocates: nothing at
// all. A choke decision's at most unchokeSlots indices come back in the
// swarm's scratch, and so do a plan's groups and their piece lists, carved
// from a slab the next plan reuses. A map, a sort closure per holder or a
// piece list per group would show here as a count that grows with the swarm.
func TestChokeRoundAllocBudget(t *testing.T) {
	for _, n := range []int{128, 512} {
		s, live, holders := benchSwarm(n, 16)
		i := 0
		if got := testing.AllocsPerRun(2*len(holders), func() {
			chokeSink = s.choke("tft", holders[i%len(holders)], i/len(holders), 1, live)
			i++
		}); got != 0 {
			t.Errorf("%d peers: a warm tit-for-tat choke decision allocates %v times, want 0", n, got)
		}
		for _, pick := range Picks {
			d := Dissemination{Pick: pick, Choke: "tft"}
			groups := len(s.planRound(d, 1, live))
			if groups == 0 {
				t.Fatalf("%d peers, pick=%s: the bench swarm plans no assignment", n, pick)
			}
			if got := testing.AllocsPerRun(5, func() { planSink = s.planRound(d, 1, live) }); got != 0 {
				t.Errorf("%d peers, pick=%s: a warm planRound allocates %v times for %d assignments, want 0",
					n, pick, got, groups)
			}
		}
	}
}
