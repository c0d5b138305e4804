package core

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"testing"
	"testing/quick"
	"time"

	"peerlab/internal/stats"
)

var now = time.Date(2007, 3, 1, 12, 0, 0, 0, time.UTC)

// snap builds a neutral snapshot and lets the caller adjust it.
func snap(peer string, mut func(*stats.Snapshot)) Candidate {
	s := stats.Snapshot{
		Peer:          peer,
		PctMsgSession: 100, PctMsgTotal: 100, PctMsgLastK: 100,
		PctTaskExecSession: 100, PctTaskExecTotal: 100,
		PctTaskAcceptSession: 100, PctTaskAcceptTotal: 100,
		PctFileSentSession: 100, PctFileSentTotal: 100,
		SecondsPerUnit: 1, CPUScore: 1,
	}
	if mut != nil {
		mut(&s)
	}
	return Candidate{Snapshot: s}
}

func TestBlindRoundRobinCycles(t *testing.T) {
	b := NewBlind()
	cands := []Candidate{snap("a", nil), snap("b", nil), snap("c", nil)}
	var got []string
	for i := 0; i < 6; i++ {
		p, err := b.Select(Request{}, cands)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, p)
	}
	want := []string{"a", "b", "c", "a", "b", "c"}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round-robin = %v, want %v", got, want)
		}
	}
}

func TestBlindEmptySet(t *testing.T) {
	if _, err := NewBlind().Select(Request{}, nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

// TestBlindRankRotates: each rank is the candidate order rotated by the
// round-robin cursor and cut to its depth, and moves the cursor on by one; a
// rank of an empty set fails and leaves the cursor where it was.
func TestBlindRankRotates(t *testing.T) {
	names := []string{"a", "b", "c", "d"}
	cands := make([]Candidate, len(names))
	for i, name := range names {
		cands[i] = snap(name, nil)
	}
	n := len(names)
	b := NewBlind()
	for call, k := range []int{0, 1, 2, n, n + 1, 0, 1, 2} {
		if _, err := b.Rank(Request{}, nil, k); !errors.Is(err, ErrNoCandidates) {
			t.Fatalf("rank of no candidates: err = %v, want ErrNoCandidates", err)
		}
		got, err := b.Rank(Request{}, cands, k)
		if err != nil {
			t.Fatal(err)
		}
		depth := n
		if k > 0 && k < n {
			depth = k
		}
		want := make([]string, depth)
		for i := range want {
			want[i] = names[(call+i)%n]
		}
		if !slices.Equal(got, want) {
			t.Fatalf("call %d, depth %d: rank = %v, want %v", call, k, got, want)
		}
	}
}

func TestEconomicPrefersIdlePeer(t *testing.T) {
	e := NewEconomic(EconomicConfig{})
	busy := snap("busy", func(s *stats.Snapshot) {
		s.ReadyAt = now.Add(time.Minute)
	})
	idle := snap("idle", nil)
	got, err := e.Select(Request{Kind: KindTask, WorkUnits: 10, Now: now}, []Candidate{busy, idle})
	if err != nil {
		t.Fatal(err)
	}
	if got != "idle" {
		t.Fatalf("selected %q, want idle", got)
	}
}

func TestEconomicPrefersFasterCPUOnTie(t *testing.T) {
	e := NewEconomic(EconomicConfig{})
	slow := snap("slowcpu", func(s *stats.Snapshot) { s.CPUScore = 1 })
	fast := snap("fastcpu", func(s *stats.Snapshot) { s.CPUScore = 2 })
	// Zero work: durations are equal, CPU breaks the tie.
	got, err := e.Select(Request{Kind: KindTask, Now: now}, []Candidate{slow, fast})
	if err != nil {
		t.Fatal(err)
	}
	if got != "fastcpu" {
		t.Fatalf("selected %q, want fastcpu (CPU tie-break)", got)
	}
}

func TestEconomicAccountsForCPUSpeedInDuration(t *testing.T) {
	e := NewEconomic(EconomicConfig{})
	slow := snap("slow", func(s *stats.Snapshot) { s.CPUScore = 0.5 })
	fast := snap("fast", func(s *stats.Snapshot) { s.CPUScore = 4 })
	got, err := e.Select(Request{Kind: KindTask, WorkUnits: 100, Now: now}, []Candidate{slow, fast})
	if err != nil {
		t.Fatal(err)
	}
	if got != "fast" {
		t.Fatalf("selected %q, want fast", got)
	}
}

func TestEconomicUsesTransferRateForFiles(t *testing.T) {
	e := NewEconomic(EconomicConfig{})
	slowLink := snap("slowlink", func(s *stats.Snapshot) { s.TransferRate = 50_000 })
	fastLink := snap("fastlink", func(s *stats.Snapshot) { s.TransferRate = 5_000_000 })
	got, err := e.Select(Request{Kind: KindFileTransfer, SizeBytes: 50_000_000, Now: now},
		[]Candidate{slowLink, fastLink})
	if err != nil {
		t.Fatal(err)
	}
	if got != "fastlink" {
		t.Fatalf("selected %q, want fastlink", got)
	}
}

func TestEconomicPenalizesPetitionDelay(t *testing.T) {
	e := NewEconomic(EconomicConfig{})
	laggy := snap("laggy", func(s *stats.Snapshot) {
		s.PetitionDelay = 27 * time.Second // SC7's signature
		s.TransferRate = 1e6
	})
	prompt := snap("prompt", func(s *stats.Snapshot) {
		s.TransferRate = 1e6
	})
	got, err := e.Select(Request{Kind: KindFileTransfer, SizeBytes: 1_000_000, Now: now},
		[]Candidate{laggy, prompt})
	if err != nil {
		t.Fatal(err)
	}
	if got != "prompt" {
		t.Fatalf("selected %q, want prompt", got)
	}
}

func TestEconomicQueueLengthDelaysStart(t *testing.T) {
	e := NewEconomic(EconomicConfig{})
	queued := snap("queued", func(s *stats.Snapshot) { s.QueueLen = 100 })
	empty := snap("empty", nil)
	got, err := e.Select(Request{Kind: KindTask, WorkUnits: 1, Now: now}, []Candidate{queued, empty})
	if err != nil {
		t.Fatal(err)
	}
	if got != "empty" {
		t.Fatalf("selected %q, want empty", got)
	}
}

func TestEconomicRankOrdersByCompletion(t *testing.T) {
	e := NewEconomic(EconomicConfig{})
	cands := []Candidate{
		snap("mid", func(s *stats.Snapshot) { s.TransferRate = 1e6 }),
		snap("best", func(s *stats.Snapshot) { s.TransferRate = 10e6 }),
		snap("worst", func(s *stats.Snapshot) { s.TransferRate = 1e5 }),
	}
	ranked, err := e.Rank(Request{Kind: KindFileTransfer, SizeBytes: 10_000_000, Now: now}, cands, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"best", "mid", "worst"}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("rank = %v, want %v", ranked, want)
		}
	}
}

func TestEconomicEmptySet(t *testing.T) {
	if _, err := NewEconomic(EconomicConfig{}).Select(Request{}, nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

func TestDataEvaluatorPrefersReliablePeer(t *testing.T) {
	de := NewSamePriority()
	flaky := snap("flaky", func(s *stats.Snapshot) {
		s.PctMsgSession = 40
		s.PctFileSentSession = 30
		s.PctCancelSession = 60
	})
	solid := snap("solid", nil)
	got, err := de.Select(Request{}, []Candidate{flaky, solid})
	if err != nil {
		t.Fatal(err)
	}
	if got != "solid" {
		t.Fatalf("selected %q, want solid", got)
	}
}

func TestDataEvaluatorWeightsChangeWinner(t *testing.T) {
	// msgKing has perfect messaging but poor file stats; fileKing opposite.
	msgKing := snap("msgking", func(s *stats.Snapshot) {
		s.PctFileSentSession = 10
		s.PctFileSentTotal = 10
		s.TransferRate = 1000
	})
	fileKing := snap("fileking", func(s *stats.Snapshot) {
		s.PctMsgSession = 10
		s.PctMsgTotal = 10
		s.PctMsgLastK = 10
		s.TransferRate = 1e7
	})
	cands := []Candidate{msgKing, fileKing}

	byMsg := &DataEvaluator{criteria: StandardCriteria(), weights: Weights{CritMsgSession: 1, CritMsgTotal: 1, CritMsgLastK: 1}}
	got1, err := byMsg.Select(Request{}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got1 != "msgking" {
		t.Fatalf("messaging weights selected %q, want msgking", got1)
	}
	byFile := &DataEvaluator{criteria: StandardCriteria(), weights: Weights{CritFileSentSess: 1, CritFileSentTotal: 1, CritTransferRate: 1}}
	got2, err := byFile.Select(Request{}, cands)
	if err != nil {
		t.Fatal(err)
	}
	if got2 != "fileking" {
		t.Fatalf("file weights selected %q, want fileking", got2)
	}
}

func TestDataEvaluatorZeroWeightIsNegligible(t *testing.T) {
	// Only messaging weighs; terrible file stats must not matter.
	de := &DataEvaluator{criteria: StandardCriteria(), weights: Weights{CritMsgSession: 1}}
	a := snap("a", func(s *stats.Snapshot) {
		s.PctMsgSession = 90
		s.PctFileSentSession = 0 // would lose on files, but files weigh 0
		s.PctCancelSession = 100
	})
	b := snap("b", func(s *stats.Snapshot) { s.PctMsgSession = 80 })
	got, err := de.Select(Request{}, []Candidate{a, b})
	if err != nil {
		t.Fatal(err)
	}
	if got != "a" {
		t.Fatalf("selected %q, want a", got)
	}
}

func TestDataEvaluatorIndistinguishableCandidatesTieBreakByName(t *testing.T) {
	de := NewSamePriority()
	got, err := de.Select(Request{}, []Candidate{snap("zeta", nil), snap("alpha", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got != "alpha" {
		t.Fatalf("selected %q, want deterministic alpha", got)
	}
}

func TestDataEvaluatorScoresBounded(t *testing.T) {
	de := NewSamePriority()
	cands := []Candidate{
		snap("a", func(s *stats.Snapshot) { s.PctMsgSession = 0; s.TransferRate = 0 }),
		snap("b", func(s *stats.Snapshot) { s.PctMsgSession = 100; s.TransferRate = 1e9 }),
	}
	total := 0.0
	for _, w := range SamePriority() {
		total += w
	}
	for i, score := range de.scores(cands) {
		if score < 0 || score > total {
			t.Fatalf("score[%s] = %v outside [0,%v]", cands[i].Snapshot.Peer, score, total)
		}
	}
}

// TestEconomicSlowPeerRanksLast: one transfer report of a byte in an hour
// puts a peer's rate at 2.8e-4 B/s; the service time of a 100 Mb request at
// that rate is past what a time.Duration holds, and converted unchecked it
// wrapped negative — the request "completed" centuries ago and the slowest
// peer won. Each term of the service time, and their sum, must saturate
// instead, and the peer rank last.
func TestEconomicSlowPeerRanksLast(t *testing.T) {
	crawl := stats.NewPeerStats("slow", func() time.Time { return now })
	crawl.ObserveTransferRate(1, time.Hour)
	file := Request{Kind: KindFileTransfer, SizeBytes: 100_000_000 / 8, Now: now}
	job := Request{Kind: KindTask, WorkUnits: 30, Now: now}
	both := Request{Kind: KindTask, SizeBytes: file.SizeBytes, WorkUnits: 30, Now: now}
	for _, c := range []struct {
		name string
		req  Request
		slow Candidate
	}{
		{"a reported rate", file, Candidate{Snapshot: crawl.Snapshot()}},
		{"transfer term", file, snap("slow", func(s *stats.Snapshot) { s.TransferRate = 1e-6 })},
		{"task term", job, snap("slow", func(s *stats.Snapshot) { s.SecondsPerUnit = 1e15 })},
		{"queue term", job, snap("slow", func(s *stats.Snapshot) { s.QueueLen = 1e15 })},
		// 6e18 ns each: either fits, their sum does not.
		{"sum of terms", both, snap("slow", func(s *stats.Snapshot) { s.SecondsPerUnit = 2e8; s.TransferRate = 12.5e6 / 6e9 })},
	} {
		cands := []Candidate{
			c.slow, // first, so a tie would not hide it
			snap("modem", func(s *stats.Snapshot) { s.TransferRate = 7_000; s.SecondsPerUnit = 50 }),
			snap("fibre", func(s *stats.Snapshot) { s.TransferRate = 1e8 }),
		}
		e := NewEconomic(EconomicConfig{})
		// Sub saturates too: a service time that reached the largest
		// Duration puts completion at least that far past now.
		if k := e.key(&c.req, &c.slow.Snapshot); k.completion.Sub(now) != math.MaxInt64 {
			t.Errorf("%s: completion %v: not saturated", c.name, k.completion)
		}
		ranked, err := e.Rank(c.req, cands, 0)
		if err != nil || !reflect.DeepEqual(ranked, []string{"fibre", "modem", "slow"}) {
			t.Errorf("%s: ranked %v, %v, want fibre, modem, slow", c.name, ranked, err)
		}
		if got, err := e.Select(c.req, cands); err != nil || got != "fibre" {
			t.Errorf("%s: selected %q, %v, want fibre", c.name, got, err)
		}
	}
}

func TestUserPreferencePicksPreferredDespiteLoad(t *testing.T) {
	// The documented drawback: preference ignores current state.
	up := NewUserPreference([]string{"overloaded", "idle"})
	overloaded := snap("overloaded", func(s *stats.Snapshot) {
		s.ReadyAt = now.Add(time.Hour)
		s.PetitionDelay = 30 * time.Second
	})
	idle := snap("idle", nil)
	got, err := up.Select(Request{Now: now}, []Candidate{overloaded, idle})
	if err != nil {
		t.Fatal(err)
	}
	if got != "overloaded" {
		t.Fatalf("selected %q; user preference must ignore current state", got)
	}
}

func TestUserPreferenceFallsBackWhenPreferredAbsent(t *testing.T) {
	up := NewUserPreference([]string{"gone"})
	got, err := up.Select(Request{}, []Candidate{snap("present", nil)})
	if err != nil {
		t.Fatal(err)
	}
	if got != "present" {
		t.Fatalf("selected %q, want present", got)
	}
}

func TestQuickPeerOrdersByRememberedTimes(t *testing.T) {
	up := NewQuickPeer(map[string]time.Duration{
		"slowmem": 20 * time.Second,
		"fastmem": 100 * time.Millisecond,
		"midmem":  2 * time.Second,
	})
	cands := []Candidate{snap("slowmem", nil), snap("midmem", nil), snap("fastmem", nil)}
	ranked, err := up.Rank(Request{}, cands, 0)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"fastmem", "midmem", "slowmem"}
	for i := range want {
		if ranked[i] != want[i] {
			t.Fatalf("rank = %v, want %v", ranked, want)
		}
	}
	if up.Name() != "quick-peer" {
		t.Fatalf("Name = %q", up.Name())
	}
}

func TestQuickPeerStaleMemoryIsTrusted(t *testing.T) {
	// The remembered-fast peer is now the worst; quick-peer still picks it.
	up := NewQuickPeer(map[string]time.Duration{"wasfast": time.Second, "wasslow": time.Minute})
	wasfast := snap("wasfast", func(s *stats.Snapshot) { s.PetitionDelay = time.Hour })
	wasslow := snap("wasslow", nil)
	got, err := up.Select(Request{}, []Candidate{wasfast, wasslow})
	if err != nil {
		t.Fatal(err)
	}
	if got != "wasfast" {
		t.Fatalf("selected %q; stale memory must be trusted", got)
	}
}

func TestUserPreferenceEmptySet(t *testing.T) {
	if _, err := NewUserPreference(nil).Select(Request{}, nil); !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

// TestPropertySelectionInCandidateSet: every selector always returns a peer
// from the candidate set, for arbitrary snapshots.
func TestPropertySelectionInCandidateSet(t *testing.T) {
	selectors := []Selector{
		NewBlind(),
		NewEconomic(EconomicConfig{}),
		NewSamePriority(),
		NewUserPreference([]string{"p1", "p9"}),
		NewQuickPeer(map[string]time.Duration{"p2": time.Second}),
	}
	f := func(seed int64, n uint8) bool {
		count := int(n%7) + 1
		rng := rand.New(rand.NewSource(seed))
		cands := make([]Candidate, count)
		valid := map[string]bool{}
		for i := range cands {
			name := string(rune('p')) + string(rune('0'+i))
			cands[i] = snap(name, func(s *stats.Snapshot) {
				s.PctMsgSession = rng.Float64() * 100
				s.PctFileSentSession = rng.Float64() * 100
				s.TransferRate = rng.Float64() * 1e7
				s.PetitionDelay = time.Duration(rng.Int63n(int64(30 * time.Second)))
				s.QueueLen = float64(rng.Intn(10))
				s.CPUScore = 0.5 + rng.Float64()*3
			})
			valid[name] = true
		}
		req := Request{Kind: KindFileTransfer, SizeBytes: 1_000_000, Now: now}
		for _, sel := range selectors {
			got, err := sel.Select(req, cands)
			if err != nil || !valid[got] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// TestPropertyRankIsPermutation: Rank returns each candidate exactly once.
func TestPropertyRankIsPermutation(t *testing.T) {
	rankers := []Selector{
		NewBlind(),
		NewEconomic(EconomicConfig{}),
		NewSamePriority(),
		NewUserPreference([]string{"p1"}),
	}
	f := func(seed int64, n uint8) bool {
		count := int(n%6) + 1
		rng := rand.New(rand.NewSource(seed))
		cands := make([]Candidate, count)
		for i := range cands {
			name := string(rune('p')) + string(rune('0'+i))
			cands[i] = snap(name, func(s *stats.Snapshot) {
				s.TransferRate = rng.Float64() * 1e7
				s.PctMsgSession = rng.Float64() * 100
			})
		}
		req := Request{Kind: KindFileTransfer, SizeBytes: 1000, Now: now}
		for _, r := range rankers {
			ranked, err := r.Rank(req, cands, 0)
			if err != nil || len(ranked) != count {
				return false
			}
			seen := map[string]bool{}
			for _, p := range ranked {
				if seen[p] {
					return false
				}
				seen[p] = true
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
