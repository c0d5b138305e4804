package overlay

import (
	"slices"
	"sort"
	"strings"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/stats"
)

// Rank index: memoized full-directory rankings for pure selection models.
//
// Each cache keeps its directory in order, so no request scans or sorts it,
// but every selection still re-ranks O(directory) candidates. For models
// asserting core.PureRanker the ranking is a pure function of (request
// shape, candidate set, candidate snapshots), all of which are cheap to
// fingerprint: the candidate set is pinned by each shard's
// jxta.Cache.Stamp (equal stamps mean the live set and its payloads
// unchanged — the same versioning the broker's merged directory keys on),
// and the snapshots by each shard's
// stats.Registry.Version. While every stamp matches, replaying the memoized
// ranking is exact, not approximate — so the index changes no wire bytes and
// no scheduling points, and golden output is untouched at any hit rate.
//
// Two model capabilities stretch a memoized ranking further:
//
//   - Subset-stable models (economic) are ranked over the FULL directory,
//     exclusions applied by filtration at serve time. One entry then serves
//     every requester's self-exclusion pattern — without this, a swarm in
//     which each source excludes itself would never hit.
//   - Now-shift-invariant models (economic again) may replay across
//     instants once the build instant is at or past every candidate's
//     ReadyAt and the request carries no deadline/budget admission; other
//     pure models (same-priority's min-max normalization reads hour-
//     bucketed message windows) replay only at the exact build instant.
//
// Entries live in a small ring (replacement is insertion-order, a
// deterministic policy — eviction affects speed, never results) guarded by
// a mutex so realnet brokers, which serve concurrently, stay race-free.

// rankIndexSlots bounds the ring: distinct request shapes in flight at once
// are few (models × flow sizes currently active), and a bounded linear scan
// keeps lookup allocation-free.
const rankIndexSlots = 8

// rankKey is the request shape one entry memoizes.
type rankKey struct {
	model     string
	kind      byte
	sizeBytes int
	workUnits float64
	// excludeKey pins the exclusion list for models that are not
	// subset-stable (exclusions are baked into their ranking); empty for
	// subset-stable models, which are ranked unexcluded.
	excludeKey string
}

// rankStamp fingerprints one shard's contribution to a ranking.
type rankStamp struct {
	cache uint64 // jxta.Cache.Stamp at build
	reg   uint64 // stats.Registry.Version at build
}

// rankEntry is one memoized ranking.
type rankEntry struct {
	key     rankKey
	builtAt time.Time
	// anyTime marks the entry replayable at any later instant (see
	// Now-shift invariance above); otherwise only at exactly builtAt.
	anyTime bool
	stamps  []rankStamp
	// ranked is the model's full output over advs' candidates, best first.
	// Both slices are immutable once installed: serve paths may alias them
	// but never write.
	ranked []string
	// advs is the canonical-order directory the ranking was built from —
	// the binary-search substrate for winner address lookup.
	advs []jxta.Advertisement
}

// rankLookupLocked returns a valid entry for key at now, or nil. Caller
// holds b.rankMu. Validation re-stamps every shard: Stamp() settles expiry
// as of now, so an expired lease surfaces as a version bump and misses.
func (b *Broker) rankLookupLocked(key rankKey, now time.Time) *rankEntry {
	for _, e := range b.rankRing {
		if e == nil || e.key != key {
			continue
		}
		if !e.anyTime && !now.Equal(e.builtAt) {
			continue
		}
		if now.Before(e.builtAt) {
			continue
		}
		ok := true
		for i, sh := range b.shards {
			if sh.cache.Stamp() != e.stamps[i].cache || sh.registry.Version() != e.stamps[i].reg {
				ok = false
				break
			}
		}
		if ok {
			return e
		}
	}
	return nil
}

// selectRanked is the one selection path: replay the memoized ranking when
// the model is pure and every stamp matches, rank from scratch otherwise,
// then filter, truncate and resolve addresses. pure is nil for a model that
// must not be memoized (see selectPeers): every lookup is then a miss,
// exclusions are baked into the candidate set, and nothing is installed.
func (b *Broker) selectRanked(req selectReq, creq core.Request, sel core.Selector, pure core.PureRanker) (peers, addrs []string, err error) {
	subsetStable := pure != nil && pure.RankSubsetStable()
	var key rankKey
	var e *rankEntry
	if pure != nil {
		key = rankKey{
			model:     req.Model,
			kind:      req.Kind,
			sizeBytes: req.SizeBytes,
			workUnits: req.WorkUnits,
		}
		if !subsetStable && len(req.Exclude) > 0 {
			key.excludeKey = strings.Join(req.Exclude, "\x00")
		}
		b.rankMu.Lock()
		e = b.rankLookupLocked(key, creq.Now)
		b.rankMu.Unlock()
	}
	var ranked []string
	var advs []jxta.Advertisement
	if e != nil {
		ranked, advs = e.ranked, e.advs
	} else if ranked, advs, err = b.rankBuild(key, creq, sel, pure, subsetStable, req.Exclude); err != nil {
		return nil, nil, err
	}

	if subsetStable && len(req.Exclude) > 0 {
		// Filtration: subset stability says deleting the excluded names
		// from the full ranking IS the ranking of the reduced set.
		filtered := make([]string, 0, len(ranked))
		for _, p := range ranked {
			if !slices.Contains(req.Exclude, p) {
				filtered = append(filtered, p)
			}
		}
		ranked = filtered
		if len(ranked) == 0 {
			// Exactly what ranking an empty candidate set returns.
			return nil, nil, core.ErrNoCandidates
		}
	}
	max := req.MaxResults
	if max <= 0 || max > len(ranked) {
		max = len(ranked)
	}
	ranked = ranked[:max]
	// Addresses only for the winners: advs is in canonical (Name, ID) order
	// and peer names are unique (one advertisement per peer), so a binary
	// search replaces a name→addr map over the whole directory.
	addrs = make([]string, len(ranked))
	for i, p := range ranked {
		if j, found := sort.Find(len(advs), func(k int) int { return strings.Compare(p, advs[k].Name) }); found {
			addrs[i] = advs[j].Addr
		}
	}
	return ranked, addrs, nil
}

// rankBuild ranks from scratch and, for a pure model, installs the result.
// Stamps are read BEFORE the directory and snapshots: a mutation racing the
// build (realnet brokers serve concurrently; registry entries created on
// first Snapshot bump the version) then leaves the entry already stale and
// the next lookup rebuilds, which is the safe direction. Under the
// serialized simulation scheduler nothing intervenes and the stamps are
// exact. The returned slices are immutable once installed: callers may
// alias them but never write.
func (b *Broker) rankBuild(key rankKey, creq core.Request, sel core.Selector, pure core.PureRanker, subsetStable bool, exclude []string) (ranked []string, advs []jxta.Advertisement, err error) {
	var stamps []rankStamp
	if pure != nil {
		stamps = make([]rankStamp, len(b.shards))
		for i, sh := range b.shards {
			stamps[i] = rankStamp{cache: sh.cache.Stamp(), reg: sh.registry.Version()}
		}
	}
	// The candidate set spans the whole network: advertisements merge from
	// every shard in canonical order, and each candidate's statistics come
	// from its owning shard, so a sharded broker ranks exactly as a single
	// one would.
	advs = b.Advertisements(jxta.AdvPeer, "")
	candsp := candPool.Get().(*[]core.Candidate)
	defer func() {
		clear(*candsp)
		*candsp = (*candsp)[:0]
		candPool.Put(candsp)
	}()
	cands := (*candsp)[:0]
	if cap(cands) < len(advs) {
		cands = make([]core.Candidate, 0, len(advs))
	}
	// Each candidate's slot is filled where it lies, as of the one instant
	// the request carries.
	var maxReadyAt time.Time
	for i := range advs {
		name := advs[i].Name
		if !subsetStable && slices.Contains(exclude, name) {
			continue
		}
		cands = cands[:len(cands)+1]
		snap := &cands[len(cands)-1].Snapshot
		b.shardOf(name).registry.Peer(name).SnapshotInto(snap, creq.Now, stats.DefaultWindowHours)
		if snap.ReadyAt.After(maxReadyAt) {
			maxReadyAt = snap.ReadyAt
		}
	}
	*candsp = cands

	if r, isRanker := sel.(core.Ranker); isRanker {
		ranked, err = r.Rank(creq, cands)
	} else {
		var one string
		one, err = sel.Select(creq, cands)
		ranked = []string{one}
	}
	if err != nil {
		// ErrNoCandidates (empty directory, or everything excluded for a
		// model that is not subset-stable) and any model error pass through
		// uncached.
		return nil, nil, err
	}
	if pure != nil {
		e := &rankEntry{
			key:     key,
			builtAt: creq.Now,
			anyTime: pure.RankNowShiftInvariant() &&
				creq.Deadline.IsZero() && creq.Budget <= 0 &&
				!creq.Now.Before(maxReadyAt),
			stamps: stamps,
			ranked: ranked,
			advs:   advs,
		}
		b.rankMu.Lock()
		b.rankRing[b.rankNext] = e // slots are replaced in insertion order
		b.rankNext = (b.rankNext + 1) % rankIndexSlots
		b.rankMu.Unlock()
	}
	return ranked, advs, nil
}
