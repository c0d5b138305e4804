// Package core implements the paper's contribution: peer-selection models
// for P2P applications.
//
// Three models from the paper, plus the "blind" baseline its first
// experiments use implicitly:
//
//   - Economic: the scheduling-based model (§2.1, after Ernemann et al.'s
//     economic scheduling) — provision idle peers by estimated ready time,
//     minimize estimated completion, tie-break by CPU speed.
//   - DataEvaluator: the cost model (§2.2) — a weighted sum over the
//     paper's statistical criteria; "same priority" mode weighs every
//     criterion equally.
//   - UserPreference: the user's static ranking (§2.3) — "quick peer" mode
//     ranks by the user's remembered response times; deliberately ignores
//     current peer and network state.
//   - Blind: no selection at all — the baseline whose petition and
//     transfer times Figures 2–5 report.
//
// Selectors consume stats.Snapshot values (the broker's view of each peer)
// and never touch the network themselves. Each serves one caller at a time
// (see Selector).
package core

import (
	"cmp"
	"errors"
	"math"
	"slices"
	"sort"
	"time"

	"peerlab/internal/stats"
)

// ErrNoCandidates is returned when selection is attempted over an empty
// candidate set.
var ErrNoCandidates = errors.New("core: no candidate peers")

// RequestKind says what the selected peer will be used for. It rides the
// selection request to the broker, but no model reads it: each ranks every
// kind the same way.
type RequestKind int

// Request kinds.
const (
	KindMessage RequestKind = iota
	KindFileTransfer
	KindTask
)

// Request describes the work a peer is being selected for.
type Request struct {
	Kind RequestKind
	// SizeBytes is the payload size for transfers (and for tasks with an
	// input file).
	SizeBytes int
	// WorkUnits is the compute demand for tasks, in reference-machine
	// seconds.
	WorkUnits float64
	// Now is the time of the decision.
	Now time.Time
}

// Candidate is one selectable peer.
type Candidate struct {
	Snapshot stats.Snapshot
}

// Selector orders the candidate set for a request, best first. The broker
// serves selections through Rank; Select is its head. A selector keeps state
// from call to call (Blind's cursor, DataEvaluator's score columns), so it
// serves one caller at a time: the broker ranks under its mu.
type Selector interface {
	// Name identifies the model in experiment output.
	Name() string
	// Select returns the chosen peer name: Rank's first.
	Select(req Request, cands []Candidate) (string, error)
	// Rank returns the first k names of the model's order over cands, or
	// all of them when k <= 0.
	Rank(req Request, cands []Candidate, k int) ([]string, error)
}

// rankTop is every model's Rank: the names of the first k candidates in the
// order before defines over their keys, ties going to the earlier candidate
// — the order a stable sort returns — or of all of them when k <= 0. key is
// called once per candidate.
//
// Depth 1 is an argmax: the best key so far and the candidate's, in two
// slots. Deeper, it sorts the candidate positions; only the 4-byte positions
// move, the keys stay put.
func rankTop[K any](cands []Candidate, k int, key func(i int) K, before func(a, b *K) int) ([]string, error) {
	n := len(cands)
	if n == 0 {
		return nil, ErrNoCandidates
	}
	if k <= 0 || k > n {
		k = n
	}
	if k == 1 {
		keys, best := [2]K{key(0)}, 0
		for i := 1; i < n; i++ {
			if keys[1] = key(i); before(&keys[1], &keys[0]) < 0 {
				keys[0], best = keys[1], i
			}
		}
		return []string{cands[best].Snapshot.Peer}, nil
	}
	keys, at := make([]K, n), make([]int32, n) // at: candidate positions, best first
	for i := range at {
		keys[i], at[i] = key(i), int32(i)
	}
	slices.SortFunc(at, func(a, b int32) int {
		if c := before(&keys[a], &keys[b]); c != 0 {
			return c
		}
		return cmp.Compare(a, b)
	})
	out := make([]string, k)
	for i := range out {
		out[i] = cands[at[i]].Snapshot.Peer
	}
	return out, nil
}

// first is a Select made of a Rank to depth 1: the head of the ranking, or
// its error.
func first(ranked []string, err error) (string, error) {
	if err != nil {
		return "", err
	}
	return ranked[0], nil
}

// StandardModels lists the built-in selection model names a broker serves:
// the registered rankers plus the per-request preference models. The one
// source of truth for surfaces that must validate a model name before any
// broker exists (the sweep grammar).
func StandardModels() []string {
	return []string{"blind", "economic", "same-priority", "quick-peer", "user-preference"}
}

// UsesPreferences reports whether the named model consumes the requester's
// own peer ranking (Request.Preferred). Brokers build these per request via
// NewUserPreference/NewQuickPeer; callers use this to decide which requests
// must carry the ranking — the two sides share this predicate so they
// cannot drift.
func UsesPreferences(model string) bool {
	return model == "quick-peer" || model == "user-preference"
}

// ---------------------------------------------------------------------------
// Blind baseline

// Blind is the paper's implicit baseline: peers are used "in a blind way",
// with no regard to their state, in round-robin order.
type Blind struct {
	next int
}

// NewBlind returns a round-robin blind selector.
func NewBlind() *Blind { return &Blind{} }

// Name implements Selector.
func (b *Blind) Name() string { return "blind" }

// Select implements Selector: the candidate at the round-robin cursor.
func (b *Blind) Select(req Request, cands []Candidate) (string, error) {
	return first(b.Rank(req, cands, 1))
}

// Rank implements Selector: candidate order rotated by the round-robin
// cursor, which a rank of an empty set leaves where it is.
func (b *Blind) Rank(_ Request, cands []Candidate, k int) ([]string, error) {
	n := len(cands)
	if n == 0 {
		return nil, ErrNoCandidates
	}
	start := b.next % n
	b.next++
	return rankTop(cands, k, func(i int) int { return (i - start + n) % n },
		func(a, b *int) int { return cmp.Compare(*a, *b) })
}

// ---------------------------------------------------------------------------
// Economic (scheduling-based) model

// EconomicConfig is empty: the model's fallback rate and price are constants.
type EconomicConfig struct{}

const (
	// fallbackRate is the assumed transfer rate (bytes/second) for peers
	// with no measured rate yet.
	fallbackRate = 200_000
	// pricePerCPUSecond converts machine time into cost; faster machines are
	// pricier in proportion to their CPU score.
	pricePerCPUSecond = 1
)

// Economic implements the scheduling-based selection model (§2.1): find
// idle peers via ready-time estimates from historical data, estimate
// completion per candidate, pick the earliest completion; CPU speed breaks
// ties.
type Economic struct{}

// NewEconomic returns the scheduling-based selector.
func NewEconomic(EconomicConfig) *Economic { return &Economic{} }

// Name implements Selector.
func (e *Economic) Name() string { return "economic" }

// addSeconds returns d plus s seconds, saturating at the largest Duration. A
// remote report can put a peer's rate near zero, and converting the
// out-of-range quotient would wrap to a service time in the past: the
// slowest peer would complete first.
func addSeconds(d time.Duration, s float64) time.Duration {
	ns := s * float64(time.Second)
	if !(ns < float64(math.MaxInt64-d)) {
		return math.MaxInt64
	}
	return d + time.Duration(ns)
}

// ecoKey is the economic model's appraisal of one candidate.
type ecoKey struct {
	completion time.Time // when the peer can start, plus the service time
	cpu        float64   // the peer's CPU score
	cost       float64   // service time * price * CPU score
}

func (e *Economic) key(req *Request, s *stats.Snapshot) ecoKey {
	ready := req.Now
	if s.ReadyAt.After(ready) {
		ready = s.ReadyAt
	}
	// Contacting a loaded peer costs its observed petition delay.
	ready = ready.Add(s.PetitionDelay)

	var dur time.Duration
	if req.WorkUnits > 0 {
		dur = addSeconds(dur, req.WorkUnits*s.SecondsPerUnit/s.CPUScore)
		// Tasks behind it in the queue delay the start.
		dur = addSeconds(dur, s.QueueLen*s.SecondsPerUnit)
	}
	if req.SizeBytes > 0 {
		rate := s.TransferRate
		if rate <= 0 {
			rate = fallbackRate
		}
		dur = addSeconds(dur, float64(req.SizeBytes)/rate)
	}

	return ecoKey{
		completion: ready.Add(dur),
		cpu:        s.CPUScore,
		cost:       dur.Seconds() * pricePerCPUSecond * s.CPUScore,
	}
}

// before orders appraisals best-first: earliest completion, then faster CPU,
// then lower cost.
func (k *ecoKey) before(o *ecoKey) int {
	switch {
	case !k.completion.Equal(o.completion):
		return k.completion.Compare(o.completion)
	case k.cpu != o.cpu:
		return cmp.Compare(o.cpu, k.cpu)
	}
	return cmp.Compare(k.cost, o.cost)
}

// Select implements Selector: the first candidate no other comes before.
func (e *Economic) Select(req Request, cands []Candidate) (string, error) {
	return first(e.Rank(req, cands, 1))
}

// Rank implements Selector.
func (e *Economic) Rank(req Request, cands []Candidate, k int) ([]string, error) {
	return rankTop(cands, k, func(i int) ecoKey { return e.key(&req, &cands[i].Snapshot) }, (*ecoKey).before)
}

// ---------------------------------------------------------------------------
// User preference model

// UserPreference implements §2.3: the user ranks peers from prior
// experience; the model never consults current state — its documented
// drawback, visible in Figure 6 where "quick peer" trails the informed
// models.
type UserPreference struct {
	// rank maps each preferred peer to its place in the user's list (the
	// first, if the list names it twice); listed is the list's length.
	rank   map[string]int32
	listed int32
	mode   string
}

// NewUserPreference selects by an explicit preference order.
func NewUserPreference(prefs []string) *UserPreference {
	rank := make(map[string]int32, len(prefs))
	for i, p := range prefs {
		if _, dup := rank[p]; !dup {
			rank[p] = int32(i)
		}
	}
	return &UserPreference{rank: rank, listed: int32(len(prefs)), mode: "user-preference"}
}

// NewQuickPeer builds the preference order from the user's remembered
// response times (fastest first) — the paper's "quick peer" mode. The
// memory may be stale; that is the point.
func NewQuickPeer(remembered map[string]time.Duration) *UserPreference {
	type kv struct {
		peer string
		d    time.Duration
	}
	list := make([]kv, 0, len(remembered))
	for p, d := range remembered {
		list = append(list, kv{p, d})
	}
	sort.Slice(list, func(i, j int) bool {
		if list[i].d != list[j].d {
			return list[i].d < list[j].d
		}
		return list[i].peer < list[j].peer
	})
	prefs := make([]string, len(list))
	for i, e := range list {
		prefs[i] = e.peer
	}
	u := NewUserPreference(prefs)
	u.mode = "quick-peer"
	return u
}

// Name implements Selector.
func (u *UserPreference) Name() string { return u.mode }

// Select implements Selector: the most-preferred available candidate; a
// candidate outside the preference list is used only if none is preferred.
func (u *UserPreference) Select(req Request, cands []Candidate) (string, error) {
	return first(u.Rank(req, cands, 1))
}

// Rank implements Selector: preferred peers in preference order, then the
// rest in candidate order.
func (u *UserPreference) Rank(_ Request, cands []Candidate, k int) ([]string, error) {
	return rankTop(cands, k, func(i int) int32 {
		if r, ok := u.rank[cands[i].Snapshot.Peer]; ok {
			return r
		}
		return u.listed
	}, func(a, b *int32) int { return cmp.Compare(*a, *b) })
}
