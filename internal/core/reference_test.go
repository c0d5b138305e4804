package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"peerlab/internal/stats"
)

// The selection models written the plainest way — a score map keyed by peer
// name under sort.SliceStable, whole refEstimates swapped under sort.Stable, two
// maps and a growing append for the preference list — kept as the oracle the
// production rankers must match bit for bit (TestRankMatchesReference). The
// references own their criteria catalog and take snapshots by value, so this
// file depends on nothing in the package but its data types.

type refCriterion struct {
	Key     string
	Value   func(stats.Snapshot) float64
	Benefit bool
}

func refStandardCriteria() []refCriterion {
	return []refCriterion{
		{CritMsgSession, func(s stats.Snapshot) float64 { return s.PctMsgSession }, true},
		{CritMsgTotal, func(s stats.Snapshot) float64 { return s.PctMsgTotal }, true},
		{CritMsgLastK, func(s stats.Snapshot) float64 { return s.PctMsgLastK }, true},
		{CritOutboxNow, func(s stats.Snapshot) float64 { return s.OutboxNow }, false},
		{CritOutboxAvg, func(s stats.Snapshot) float64 { return s.OutboxAvg }, false},
		{CritInboxNow, func(s stats.Snapshot) float64 { return s.InboxNow }, false},
		{CritInboxAvg, func(s stats.Snapshot) float64 { return s.InboxAvg }, false},
		{CritTaskExecSess, func(s stats.Snapshot) float64 { return s.PctTaskExecSession }, true},
		{CritTaskExecTotal, func(s stats.Snapshot) float64 { return s.PctTaskExecTotal }, true},
		{CritTaskAccSess, func(s stats.Snapshot) float64 { return s.PctTaskAcceptSession }, true},
		{CritTaskAccTotal, func(s stats.Snapshot) float64 { return s.PctTaskAcceptTotal }, true},
		{CritFileSentSess, func(s stats.Snapshot) float64 { return s.PctFileSentSession }, true},
		{CritFileSentTotal, func(s stats.Snapshot) float64 { return s.PctFileSentTotal }, true},
		{CritCancelSess, func(s stats.Snapshot) float64 { return s.PctCancelSession }, false},
		{CritCancelTotal, func(s stats.Snapshot) float64 { return s.PctCancelTotal }, false},
		{CritPendingXfer, func(s stats.Snapshot) float64 { return s.PendingTransfers }, false},
		{CritTransferRate, func(s stats.Snapshot) float64 { return s.TransferRate }, true},
		{CritPetitionDelay, func(s stats.Snapshot) float64 { return s.PetitionDelay.Seconds() }, false},
	}
}

// refEvaluator is the data evaluator: min-max normalize each weighted
// criterion over the set, invert costs, sum by weight into a map.
type refEvaluator struct {
	criteria []refCriterion
	weights  Weights
}

func (de *refEvaluator) Scores(cands []Candidate) map[string]float64 {
	scores := make(map[string]float64, len(cands))
	for _, c := range cands {
		scores[c.Snapshot.Peer] = 0
	}
	for _, crit := range de.criteria {
		w := de.weights[crit.Key]
		if w <= 0 {
			continue
		}
		lo, hi := refRangeOf(cands, crit)
		for _, c := range cands {
			v := crit.Value(c.Snapshot)
			var norm float64
			if hi > lo {
				norm = (v - lo) / (hi - lo)
			} else {
				norm = 0.5 // indistinguishable candidates score neutrally
			}
			if !crit.Benefit {
				norm = 1 - norm
			}
			scores[c.Snapshot.Peer] += w * norm
		}
	}
	return scores
}

func refRangeOf(cands []Candidate, crit refCriterion) (lo, hi float64) {
	for i, c := range cands {
		v := crit.Value(c.Snapshot)
		if i == 0 || v < lo {
			lo = v
		}
		if i == 0 || v > hi {
			hi = v
		}
	}
	return lo, hi
}

func (de *refEvaluator) Select(cands []Candidate) (string, error) {
	ranked, err := de.Rank(cands)
	if err != nil {
		return "", err
	}
	return ranked[0], nil
}

func (de *refEvaluator) Rank(cands []Candidate) ([]string, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	scores := de.Scores(cands)
	out := make([]string, len(cands))
	for i, c := range cands {
		out[i] = c.Snapshot.Peer
	}
	sort.SliceStable(out, func(i, j int) bool {
		if scores[out[i]] != scores[out[j]] {
			return scores[out[i]] > scores[out[j]]
		}
		return out[i] < out[j]
	})
	return out, nil
}

// refEconomic is the scheduling-based model: appraise every candidate, stable
// sort the appraisals. Its arithmetic is the unsaturated original, so the
// generator keeps rates where a service time fits a time.Duration. It writes
// the model's fallback rate (200 KB/s) and price (1) as its own literals.
type refEconomic struct{}

// refEstimate is what the reference order reads of one appraisal.
type refEstimate struct {
	Peer       string
	Completion time.Time // ready time plus service time
	Cost       float64   // service time * price * CPU score
}

func (e *refEconomic) Estimate(req Request, c Candidate) refEstimate {
	s := c.Snapshot
	ready := req.Now
	if s.ReadyAt.After(ready) {
		ready = s.ReadyAt
	}
	ready = ready.Add(s.PetitionDelay)

	var dur time.Duration
	if req.WorkUnits > 0 {
		dur += time.Duration(req.WorkUnits * s.SecondsPerUnit / s.CPUScore * float64(time.Second))
		dur += time.Duration(s.QueueLen * s.SecondsPerUnit * float64(time.Second))
	}
	if req.SizeBytes > 0 {
		rate := s.TransferRate
		if rate <= 0 {
			rate = 200_000
		}
		dur += time.Duration(float64(req.SizeBytes) / rate * float64(time.Second))
	}

	return refEstimate{
		Peer:       s.Peer,
		Completion: ready.Add(dur),
		Cost:       dur.Seconds() * 1 * s.CPUScore,
	}
}

func (e *refEconomic) Estimates(req Request, cands []Candidate) []refEstimate {
	ests := make([]refEstimate, len(cands))
	cpu := make([]float64, len(cands))
	for i, c := range cands {
		ests[i] = e.Estimate(req, c)
		cpu[i] = c.Snapshot.CPUScore
	}
	sort.Stable(&refEstSorter{ests: ests, cpu: cpu})
	return ests
}

// refEstSorter orders appraisals: earliest completion, faster CPU, lower
// cost.
type refEstSorter struct {
	ests []refEstimate
	cpu  []float64
}

func (s *refEstSorter) Len() int { return len(s.ests) }
func (s *refEstSorter) Swap(i, j int) {
	s.ests[i], s.ests[j] = s.ests[j], s.ests[i]
	s.cpu[i], s.cpu[j] = s.cpu[j], s.cpu[i]
}
func (s *refEstSorter) Less(i, j int) bool {
	a, b := &s.ests[i], &s.ests[j]
	if !a.Completion.Equal(b.Completion) {
		return a.Completion.Before(b.Completion)
	}
	if s.cpu[i] != s.cpu[j] {
		return s.cpu[i] > s.cpu[j]
	}
	return a.Cost < b.Cost
}

func (e *refEconomic) Select(req Request, cands []Candidate) (string, error) {
	if len(cands) == 0 {
		return "", ErrNoCandidates
	}
	return e.Estimates(req, cands)[0].Peer, nil
}

func (e *refEconomic) Rank(req Request, cands []Candidate) ([]string, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	ests := e.Estimates(req, cands)
	out := make([]string, len(ests))
	for i, est := range ests {
		out[i] = est.Peer
	}
	return out, nil
}

// refPreference is the user-preference model over an explicit list.
type refPreference struct {
	prefs []string
}

func (u *refPreference) Select(cands []Candidate) (string, error) {
	if len(cands) == 0 {
		return "", ErrNoCandidates
	}
	avail := make(map[string]bool, len(cands))
	for _, c := range cands {
		avail[c.Snapshot.Peer] = true
	}
	for _, p := range u.prefs {
		if avail[p] {
			return p, nil
		}
	}
	return cands[0].Snapshot.Peer, nil
}

func (u *refPreference) Rank(cands []Candidate) ([]string, error) {
	if len(cands) == 0 {
		return nil, ErrNoCandidates
	}
	avail := make(map[string]bool, len(cands))
	for _, c := range cands {
		avail[c.Snapshot.Peer] = true
	}
	var out []string
	seen := make(map[string]bool)
	for _, p := range u.prefs {
		if avail[p] && !seen[p] {
			out = append(out, p)
			seen[p] = true
		}
	}
	for _, c := range cands {
		if !seen[c.Snapshot.Peer] {
			out = append(out, c.Snapshot.Peer)
			seen[c.Snapshot.Peer] = true
		}
	}
	return out, nil
}

// ---------------------------------------------------------------------------
// Seeded cases

// rankCase is one randomized selection problem, shared by a production model
// and its reference.
type rankCase struct {
	req     Request
	cands   []Candidate
	catalog []Criterion // nil: the standard catalog
	weights Weights
	prefs   []string
}

// draw is how one snapshot field varies across a case's candidates.
type draw int

const (
	drawConstant draw = iota // every candidate equal: hi == lo
	drawCoarse               // three values: heavy ties
	drawFine                 // continuous
)

// genRankCase derives a case from (seed, n). Names are unique (one
// advertisement per peer) and in no relation to candidate order. Every field
// varies in one of three ways, chosen per case, so a case mixes criteria that
// cannot tell candidates apart, criteria that tie most of them, and criteria
// that order them all.
func genRankCase(seed int64, n int) rankCase {
	rng := rand.New(rand.NewSource(seed))
	at := now
	tc := rankCase{cands: make([]Candidate, n)}

	value := func(d draw, scale float64) func() float64 {
		constant := scale * float64(rng.Intn(3)) / 2
		return func() float64 {
			switch d {
			case drawConstant:
				return constant
			case drawCoarse:
				return scale * float64(rng.Intn(3)) / 2
			default:
				return scale * rng.Float64()
			}
		}
	}
	scales := []float64{100, 100, 100, 20, 20, 20, 20, 100, 100, 100, 100, 100, 100, 100, 100, 8}
	fields := func(s *stats.Snapshot) []*float64 {
		return []*float64{
			&s.PctMsgSession, &s.PctMsgTotal, &s.PctMsgLastK,
			&s.OutboxNow, &s.OutboxAvg, &s.InboxNow, &s.InboxAvg,
			&s.PctTaskExecSession, &s.PctTaskExecTotal, &s.PctTaskAcceptSession, &s.PctTaskAcceptTotal,
			&s.PctFileSentSession, &s.PctFileSentTotal, &s.PctCancelSession, &s.PctCancelTotal,
			&s.PendingTransfers,
		}
	}
	gens := make([]func() float64, len(scales))
	for i, sc := range scales {
		gens[i] = value(draw(rng.Intn(3)), sc)
	}
	rate := value(draw(rng.Intn(3)), 8e6)
	delay := value(draw(rng.Intn(3)), 0.5)
	cpu := value(draw(rng.Intn(3)), 3)
	spu := value(draw(rng.Intn(3)), 2)
	queue := value(draw(rng.Intn(3)), 4)
	readyIn := value(draw(rng.Intn(3)), 120) // seconds around Now: past and future

	ids := rng.Perm(n)
	for i := range tc.cands {
		s := &tc.cands[i].Snapshot
		s.Peer = fmt.Sprintf("%c%05d", "anz"[ids[i]%3], ids[i])
		for j, f := range fields(s) {
			*f = gens[j]()
		}
		// 0 is "unknown": the economic model substitutes its fallback rate.
		// A known rate stays above 1 KB/s so 1e8 bytes fit a Duration.
		if r := rate(); r > 0 {
			s.TransferRate = 1e3 + r
		}
		s.PetitionDelay = time.Duration(delay() * float64(time.Second))
		s.CPUScore = 0.5 + cpu()
		s.SecondsPerUnit = 0.5 + spu()
		s.QueueLen = math.Floor(queue())
		if rng.Intn(4) > 0 {
			s.ReadyAt = at.Add(time.Duration((readyIn() - 60) * float64(time.Second)))
		}
	}

	tc.req = Request{
		Kind:      RequestKind(rng.Intn(3)),
		SizeBytes: []int{0, 1_000_000, 100_000_000}[rng.Intn(3)],
		WorkUnits: []float64{0, 0, 30}[rng.Intn(3)],
		Now:       at,
	}

	// Weights: absent, zero, equal or uneven per criterion; now and then all
	// of them absent or zero, so every score is 0 and names alone order.
	tc.weights = Weights{}
	if rng.Intn(8) > 0 {
		for _, c := range StandardCriteria() {
			switch rng.Intn(5) {
			case 0: // absent
			case 1:
				tc.weights[c.Key] = 0
			case 2:
				tc.weights[c.Key] = 1
			default:
				tc.weights[c.Key] = float64(1+rng.Intn(6)) / 2
			}
		}
	}
	// Every third case ranks over a custom catalog: a reordered subset of the
	// standard one with some criteria turned from benefit to cost or back.
	if rng.Intn(3) == 0 {
		std := StandardCriteria()
		rng.Shuffle(len(std), func(i, j int) { std[i], std[j] = std[j], std[i] })
		tc.catalog = std[:1+rng.Intn(len(std))]
		for i := range tc.catalog {
			if rng.Intn(4) == 0 {
				tc.catalog[i].Benefit = !tc.catalog[i].Benefit
			}
		}
	}

	// Preferences: some candidates, some peers that are not candidates, some
	// names twice.
	for k := rng.Intn(2 + n/2); k > 0; k-- {
		switch rng.Intn(4) {
		case 0:
			tc.prefs = append(tc.prefs, fmt.Sprintf("gone%03d", rng.Intn(50)))
		case 1:
			if len(tc.prefs) > 0 {
				tc.prefs = append(tc.prefs, tc.prefs[rng.Intn(len(tc.prefs))])
				break
			}
			fallthrough
		default:
			tc.prefs = append(tc.prefs, tc.cands[rng.Intn(n)].Snapshot.Peer)
		}
	}
	return tc
}

// evaluators builds the production data evaluator and its reference from
// the same catalog and weights.
func (tc rankCase) evaluators() (*DataEvaluator, *refEvaluator) {
	byKey := map[string]refCriterion{}
	for _, c := range refStandardCriteria() {
		byKey[c.Key] = c
	}
	catalog := tc.catalog
	if catalog == nil {
		catalog = StandardCriteria()
	}
	de := &DataEvaluator{criteria: catalog, weights: tc.weights, label: "custom"}
	ref := &refEvaluator{weights: tc.weights}
	for _, c := range catalog {
		rc := byKey[c.Key]
		rc.Benefit = c.Benefit
		ref.criteria = append(ref.criteria, rc)
	}
	return de, ref
}

// scoreOf reads candidate i's score from what an evaluator's scores returned,
// whether that is keyed by peer name or indexed by candidate position.
func scoreOf(scores any, i int, peer string) float64 {
	switch s := scores.(type) {
	case map[string]float64:
		return s[peer]
	case []float64:
		return s[i]
	}
	panic(fmt.Sprintf("scores returned %T", scores))
}

func sameErr(got, want error) bool {
	if got == nil || want == nil {
		return got == nil && want == nil
	}
	return got.Error() == want.Error() &&
		errors.Is(got, ErrNoCandidates) == errors.Is(want, ErrNoCandidates)
}

// rankCoverage counts what the generator reached, so the test can insist
// the hard cases occurred.
type rankCoverage struct {
	scoreTies, flatCriteria, allZeroWeights, customCatalogs int
	futureReady, absentPrefs, duplicatePrefs                int
}

// checkRankCase runs one case through every model and its reference. It
// returns the first disagreement, or nil.
func checkRankCase(seed int64, n int, cov *rankCoverage) error {
	tc := genRankCase(seed, n)
	fail := func(model, what string, got, want any) error {
		return fmt.Errorf("seed %d n %d %s: %s\n got %v\nwant %v", seed, n, model, what, got, want)
	}
	// ranks holds a model's Rank to the reference ranking at every depth:
	// the whole ranking (0), the few a broker asks for, and either side of
	// the candidate count. Each must be the reference's first k names.
	ranks := func(model string, rank func(k int) ([]string, error), want []string, wantErr error) error {
		for _, k := range []int{0, 1, 2, 3, n / 2, n - 1, n, n + 1} {
			head := want
			if k > 0 && k < len(want) {
				head = want[:k]
			}
			if got, gotErr := rank(k); !sameErr(gotErr, wantErr) || !reflect.DeepEqual(got, head) {
				return fail(model, fmt.Sprintf("Rank to depth %d", k), fmt.Sprint(got, gotErr), fmt.Sprint(head, wantErr))
			}
		}
		return nil
	}

	// Data evaluator.
	de, refDE := tc.evaluators()
	gotScores, wantScores := any(de.scores(tc.cands)), refDE.Scores(tc.cands)
	for i, c := range tc.cands {
		got, want := scoreOf(gotScores, i, c.Snapshot.Peer), wantScores[c.Snapshot.Peer]
		if math.Float64bits(got) != math.Float64bits(want) {
			return fail(de.Name(), "score of "+c.Snapshot.Peer, got, want)
		}
	}
	wantRank, wantErr := refDE.Rank(tc.cands)
	if err := ranks(de.Name(), func(k int) ([]string, error) { return de.Rank(tc.req, tc.cands, k) }, wantRank, wantErr); err != nil {
		return err
	}
	gotSel, gotErr := de.Select(tc.req, tc.cands)
	wantSel, wantErr := refDE.Select(tc.cands)
	if !sameErr(gotErr, wantErr) || gotSel != wantSel {
		return fail(de.Name(), "Select", fmt.Sprint(gotSel, gotErr), fmt.Sprint(wantSel, wantErr))
	}

	// Economic.
	eco := NewEconomic(EconomicConfig{})
	refEco := &refEconomic{}
	wantRank, wantErr = refEco.Rank(tc.req, tc.cands)
	if err := ranks("economic", func(k int) ([]string, error) { return eco.Rank(tc.req, tc.cands, k) }, wantRank, wantErr); err != nil {
		return err
	}
	gotSel, gotErr = eco.Select(tc.req, tc.cands)
	wantSel, wantErr = refEco.Select(tc.req, tc.cands)
	if !sameErr(gotErr, wantErr) || gotSel != wantSel {
		return fail("economic", "Select", fmt.Sprint(gotSel, gotErr), fmt.Sprint(wantSel, wantErr))
	}

	// User preference.
	up := NewUserPreference(tc.prefs)
	refUP := &refPreference{prefs: tc.prefs}
	wantRank, wantErr = refUP.Rank(tc.cands)
	if err := ranks("user-preference", func(k int) ([]string, error) { return up.Rank(tc.req, tc.cands, k) }, wantRank, wantErr); err != nil {
		return err
	}
	gotSel, gotErr = up.Select(tc.req, tc.cands)
	wantSel, wantErr = refUP.Select(tc.cands)
	if !sameErr(gotErr, wantErr) || gotSel != wantSel {
		return fail("user-preference", "Select", fmt.Sprint(gotSel, gotErr), fmt.Sprint(wantSel, wantErr))
	}

	if cov == nil {
		return nil
	}
	ranked, _ := refDE.Rank(tc.cands)
	for i := 1; i < len(ranked); i++ {
		if wantScores[ranked[i-1]] == wantScores[ranked[i]] {
			cov.scoreTies++
			break
		}
	}
	weighted := 0
	for _, crit := range refDE.criteria {
		if tc.weights[crit.Key] <= 0 {
			continue
		}
		weighted++
		if lo, hi := refRangeOf(tc.cands, crit); n > 1 && lo == hi {
			cov.flatCriteria++
		}
	}
	if weighted == 0 {
		cov.allZeroWeights++
	}
	if tc.catalog != nil {
		cov.customCatalogs++
	}
	for _, c := range tc.cands {
		if c.Snapshot.ReadyAt.After(tc.req.Now) {
			cov.futureReady++
			break
		}
	}
	offered := map[string]bool{}
	for _, c := range tc.cands {
		offered[c.Snapshot.Peer] = true
	}
	listed := map[string]bool{}
	var absent, dup bool
	for _, p := range tc.prefs {
		absent = absent || !offered[p]
		dup = dup || listed[p]
		listed[p] = true
	}
	if absent {
		cov.absentPrefs++
	}
	if dup {
		cov.duplicatePrefs++
	}
	return nil
}

// TestRankMatchesReference: over seeded random candidate sets of 1 to 2 000
// peers, every production model returns the reference's ranking, the
// reference's winner and error, and (data evaluator) the reference's scores
// to the bit.
func TestRankMatchesReference(t *testing.T) {
	sizes := rand.New(rand.NewSource(20))
	var cov rankCoverage
	const cases = 160
	for seed := int64(1); seed <= cases; seed++ {
		n := 1 + sizes.Intn(8)
		switch {
		case seed%16 == 0:
			n = 1000 + sizes.Intn(1001)
		case seed%3 == 0:
			n = 1 + sizes.Intn(200)
		}
		if err := checkRankCase(seed, n, &cov); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("coverage over %d cases: %+v", cases, cov)
	for name, count := range map[string]int{
		"adjacent equal scores":           cov.scoreTies,
		"weighted criteria with hi == lo": cov.flatCriteria,
		"no weighted criterion":           cov.allZeroWeights,
		"custom catalogs":                 cov.customCatalogs,
		"ReadyAt in the future":           cov.futureReady,
		"preferences naming absent peers": cov.absentPrefs,
		"preferences naming a peer twice": cov.duplicatePrefs,
	} {
		if count < 5 {
			t.Errorf("the generator reached %q in %d of %d cases, want at least 5", name, count, cases)
		}
	}
}

// TestEvaluatorReuseMatchesFresh: one data evaluator ranks a sequence of
// candidate sets that shrink and grow, and every score and every ranking, at
// every depth, equals a fresh evaluator's and the reference's. What one call
// leaves behind in the evaluator must never reach the next.
func TestEvaluatorReuseMatchesFresh(t *testing.T) {
	sizes := []int{64, 7, 1, 300, 2, 1, 64}
	for seed := int64(1); seed <= 12; seed++ {
		tc := genRankCase(seed, 1)
		if seed%3 == 0 {
			tc.catalog, tc.weights = nil, SamePriority()
		}
		de, ref := tc.evaluators()
		for j, n := range sizes {
			cands := genRankCase(1000*seed+int64(j), n).cands
			fresh, _ := tc.evaluators()
			got, fromFresh, want := de.scores(cands), fresh.scores(cands), ref.Scores(cands)
			for i, c := range cands {
				g, f, w := got[i], fromFresh[i], want[c.Snapshot.Peer]
				if math.Float64bits(g) != math.Float64bits(w) || math.Float64bits(f) != math.Float64bits(w) {
					t.Fatalf("seed %d, set %d of %d candidates: score of %s: reused %v, fresh %v, reference %v",
						seed, j, n, c.Snapshot.Peer, g, f, w)
				}
			}
			wantRank, _ := ref.Rank(cands)
			for _, k := range []int{0, 1, 3} {
				head := wantRank
				if k > 0 && k < n {
					head = wantRank[:k]
				}
				fresh, _ := tc.evaluators()
				gotRank, err := de.Rank(tc.req, cands, k)
				freshRank, freshErr := fresh.Rank(tc.req, cands, k)
				if err != nil || freshErr != nil || !reflect.DeepEqual(gotRank, head) || !reflect.DeepEqual(freshRank, head) {
					t.Fatalf("seed %d, set %d of %d candidates, depth %d: reused %v (%v), fresh %v (%v), reference %v",
						seed, j, n, k, gotRank, err, freshRank, freshErr, head)
				}
			}
		}
	}
}

// FuzzRankMatchesReference hands (seed, n) to the fuzzer.
func FuzzRankMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(1))
	f.Add(int64(2), uint16(7))
	f.Add(int64(3), uint16(1999))
	f.Fuzz(func(t *testing.T, seed int64, n uint16) {
		if err := checkRankCase(seed, 1+int(n)%2000, nil); err != nil {
			t.Fatal(err)
		}
	})
}
