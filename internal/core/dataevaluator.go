package core

import (
	"slices"
	"strings"

	"peerlab/internal/stats"
)

// Criterion is one data-evaluator scoring dimension over a peer snapshot.
type Criterion struct {
	// Key names the criterion; weights are keyed by it.
	Key string
	// Value extracts the raw value from a snapshot. It takes a pointer: a
	// ranking calls it once per candidate per criterion, and a Snapshot is
	// some 300 bytes.
	Value func(*stats.Snapshot) float64
	// Benefit marks higher-is-better criteria; the rest are costs.
	Benefit bool
}

// The standard criteria catalog mirrors the paper's §2.2 enumeration:
// global messaging criteria, task-execution criteria, and file-transfer
// criteria.
const (
	CritMsgSession    = "pct-msg-session"
	CritMsgTotal      = "pct-msg-total"
	CritMsgLastK      = "pct-msg-last-k"
	CritOutboxNow     = "outbox-now"
	CritOutboxAvg     = "outbox-avg"
	CritInboxNow      = "inbox-now"
	CritInboxAvg      = "inbox-avg"
	CritTaskExecSess  = "pct-task-exec-session"
	CritTaskExecTotal = "pct-task-exec-total"
	CritTaskAccSess   = "pct-task-accept-session"
	CritTaskAccTotal  = "pct-task-accept-total"
	CritFileSentSess  = "pct-file-sent-session"
	CritFileSentTotal = "pct-file-sent-total"
	CritCancelSess    = "pct-cancel-session"
	CritCancelTotal   = "pct-cancel-total"
	CritPendingXfer   = "pending-transfers"
	CritTransferRate  = "transfer-rate"
	CritPetitionDelay = "petition-delay"
)

// StandardCriteria returns the full catalog from §2.2 (plus the two
// link-quality criteria the broker measures anyway). The slice is fresh on
// every call; callers may filter it.
func StandardCriteria() []Criterion {
	return []Criterion{
		{CritMsgSession, func(s *stats.Snapshot) float64 { return s.PctMsgSession }, true},
		{CritMsgTotal, func(s *stats.Snapshot) float64 { return s.PctMsgTotal }, true},
		{CritMsgLastK, func(s *stats.Snapshot) float64 { return s.PctMsgLastK }, true},
		{CritOutboxNow, func(s *stats.Snapshot) float64 { return s.OutboxNow }, false},
		{CritOutboxAvg, func(s *stats.Snapshot) float64 { return s.OutboxAvg }, false},
		{CritInboxNow, func(s *stats.Snapshot) float64 { return s.InboxNow }, false},
		{CritInboxAvg, func(s *stats.Snapshot) float64 { return s.InboxAvg }, false},
		{CritTaskExecSess, func(s *stats.Snapshot) float64 { return s.PctTaskExecSession }, true},
		{CritTaskExecTotal, func(s *stats.Snapshot) float64 { return s.PctTaskExecTotal }, true},
		{CritTaskAccSess, func(s *stats.Snapshot) float64 { return s.PctTaskAcceptSession }, true},
		{CritTaskAccTotal, func(s *stats.Snapshot) float64 { return s.PctTaskAcceptTotal }, true},
		{CritFileSentSess, func(s *stats.Snapshot) float64 { return s.PctFileSentSession }, true},
		{CritFileSentTotal, func(s *stats.Snapshot) float64 { return s.PctFileSentTotal }, true},
		{CritCancelSess, func(s *stats.Snapshot) float64 { return s.PctCancelSession }, false},
		{CritCancelTotal, func(s *stats.Snapshot) float64 { return s.PctCancelTotal }, false},
		{CritPendingXfer, func(s *stats.Snapshot) float64 { return s.PendingTransfers }, false},
		{CritTransferRate, func(s *stats.Snapshot) float64 { return s.TransferRate }, true},
		{CritPetitionDelay, func(s *stats.Snapshot) float64 { return s.PetitionDelay.Seconds() }, false},
	}
}

// Weights maps criterion keys to non-negative importance. Criteria absent
// from the map weigh zero ("negligible" in the paper's terms).
type Weights map[string]float64

// SamePriority weighs every standard criterion equally — the mode evaluated
// in Figure 6.
func SamePriority() Weights {
	w := Weights{}
	for _, c := range StandardCriteria() {
		w[c.Key] = 1
	}
	return w
}

// DataEvaluator implements the paper's cost model (§2.2): each criterion is
// min-max normalized over the candidate set, inverted if it is a cost, and
// combined by weight; the best-scoring peer wins. Removing the extremal
// candidate rescales everyone else's score, so the ranking is not
// subset-stable: a caller must remove exclusions before ranking.
type DataEvaluator struct {
	criteria  []Criterion
	weights   Weights
	label     string
	sums, col []float64 // scores' columns, kept from call to call
}

// NewSamePriority is the evaluator over the standard catalog with equal
// weights, labeled as the paper labels it in Figure 6.
func NewSamePriority() *DataEvaluator {
	return &DataEvaluator{criteria: StandardCriteria(), weights: SamePriority(), label: "same-priority"}
}

// Name implements Selector.
func (de *DataEvaluator) Name() string { return de.label }

// scores returns each candidate's aggregate utility in [0, totalWeight],
// indexed by candidate position, in the evaluator's own column: the next
// call overwrites it. One pass per weighted criterion reads the column and
// finds its range together; a second normalizes it into the sums.
func (de *DataEvaluator) scores(cands []Candidate) []float64 {
	n := len(cands)
	de.sums, de.col = slices.Grow(de.sums[:0], n)[:n], slices.Grow(de.col[:0], n)[:n]
	scores, col := de.sums, de.col
	clear(scores)
	for k := range de.criteria {
		crit := &de.criteria[k]
		w := de.weights[crit.Key]
		if w <= 0 {
			continue
		}
		var lo, hi float64
		for i := range cands {
			v := crit.Value(&cands[i].Snapshot)
			col[i] = v
			if i == 0 || v < lo {
				lo = v
			}
			if i == 0 || v > hi {
				hi = v
			}
		}
		for i, v := range col {
			var norm float64
			if hi > lo {
				norm = (v - lo) / (hi - lo)
			} else {
				norm = 0.5 // indistinguishable candidates score neutrally
			}
			if !crit.Benefit {
				norm = 1 - norm
			}
			scores[i] += w * norm
		}
	}
	return scores
}

// better orders candidates a and b best-first: the higher score, then the
// peer name, so exact ties break deterministically.
func better(cands []Candidate, scores []float64, a, b int32) int {
	if scores[a] != scores[b] {
		if scores[a] > scores[b] {
			return -1
		}
		return 1
	}
	return strings.Compare(cands[a].Snapshot.Peer, cands[b].Snapshot.Peer)
}

// Select implements Selector: the candidate with the best aggregate score.
func (de *DataEvaluator) Select(req Request, cands []Candidate) (string, error) {
	return first(de.Rank(req, cands, 1))
}

// Rank implements Selector. A candidate's key is its position, which indexes
// the score column.
func (de *DataEvaluator) Rank(_ Request, cands []Candidate, k int) ([]string, error) {
	scores := de.scores(cands)
	return rankTop(cands, k, func(i int) int32 { return int32(i) },
		func(a, b *int32) int { return better(cands, scores, *a, *b) })
}
