package overlay

import (
	"slices"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/stats"
)

// Rank index: memoized ranking prefixes for pure selection models.
//
// For models asserting core.PureRanker the ranking is a pure function of
// (request shape, candidate set, candidate snapshots), all cheap to
// fingerprint: the candidate set by each shard's jxta.Cache.Stamp (equal
// stamps mean the live set and its payloads unchanged — the versioning the
// merged directory keys on too), the snapshots by each shard's
// stats.Registry.Version. While every stamp matches, a replay is exact, so
// the index changes no wire bytes and no scheduling points at any hit rate.
//
// A pure model is subset-stable, so it is ranked over the FULL directory and
// exclusions are applied by filtration at serve time: one entry serves every
// requester's self-exclusion. A build ranks only to the depth its request
// reads, MaxResults + len(Exclude), and the entry keeps that prefix. A
// replay filters the prefix and serves if MaxResults names survive or the
// prefix is the whole ranking, and rebuilds deeper otherwise; by subset
// stability, filtering that prefix equals filtering the full ranking.
//
// A Now-shift-invariant model (economic) replays across instants once the
// build instant is at or past every candidate's ReadyAt; otherwise only at
// the build instant.
//
// Entries live in a small ring, one per request shape (replacement is
// insertion-order, a deterministic policy — eviction affects speed, never
// results), guarded by a mutex because realnet brokers serve concurrently.

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
}

// rankStamp fingerprints one shard's contribution to a ranking.
type rankStamp struct {
	cache uint64 // jxta.Cache.Stamp at build
	reg   uint64 // stats.Registry.Version at build
}

// rankEntry is one ranking, memoized or not.
type rankEntry struct {
	key     rankKey
	builtAt time.Time
	// anyTime marks the entry replayable at any later instant (see
	// Now-shift invariance above); otherwise only at exactly builtAt.
	anyTime bool
	stamps  []rankStamp
	// ranked is the first names of the model's order over the directory's
	// dirLen candidates, best first: all of them when it is dirLen long.
	// It is immutable once installed: serve paths may alias it but never
	// write.
	ranked []string
	dirLen int
}

// rankLookupLocked returns a valid entry for key at now, or nil. Caller
// holds b.rankMu. Validation re-stamps every shard: Stamp() settles expiry
// as of now, so an expired lease surfaces as a version bump and misses.
func (b *Broker) rankLookupLocked(key rankKey, now time.Time) *rankEntry {
	for _, e := range b.rankRing {
		if e == nil || e.key != key {
			continue
		}
		if !e.anyTime && !now.Equal(e.builtAt) || now.Before(e.builtAt) {
			return nil
		}
		for i, sh := range b.shards {
			if sh.cache.Stamp() != e.stamps[i].cache || sh.registry.Version() != e.stamps[i].reg {
				return nil
			}
		}
		return e
	}
	return nil
}

// serve filters the excluded names out of the entry's ranking and keeps the
// first req.MaxResults (all, when it is not positive). ok reports that the
// ranking was deep enough: whole, or MaxResults names survived.
func (e *rankEntry) serve(req *selectReq) (peers []string, ok bool) {
	max := req.MaxResults
	if max <= 0 || max > len(e.ranked) {
		max = len(e.ranked)
	}
	peers = make([]string, 0, max)
	for _, p := range e.ranked {
		if len(peers) == max {
			break
		}
		if !slices.Contains(req.Exclude, p) {
			peers = append(peers, p)
		}
	}
	return peers, len(e.ranked) == e.dirLen || req.MaxResults > 0 && len(peers) == req.MaxResults
}

// selectRanked is the one selection path: replay the memoized prefix when
// the model is pure, every stamp matches and the prefix is deep enough, rank
// from scratch otherwise, then filter and truncate. pure is nil for a model
// that must not be memoized (see selectPeers): every lookup is then a miss,
// exclusions are baked into the candidate set, and nothing is installed.
func (b *Broker) selectRanked(req selectReq, creq core.Request, sel core.Ranker, pure core.PureRanker) (peers []string, err error) {
	var key rankKey
	var e *rankEntry
	ok := false
	if pure != nil {
		key = rankKey{model: req.Model, kind: req.Kind, sizeBytes: req.SizeBytes, workUnits: req.WorkUnits}
		b.rankMu.Lock()
		e = b.rankLookupLocked(key, creq.Now)
		b.rankMu.Unlock()
		if e != nil {
			peers, ok = e.serve(&req)
		}
	}
	if !ok {
		if e, err = b.rankBuild(key, creq, sel, pure, &req); err != nil {
			return nil, err
		}
		// A fresh ranking is deep enough: at most len(Exclude) of its names
		// are excluded.
		peers, _ = e.serve(&req)
	}
	if len(peers) == 0 {
		// Exactly what ranking an empty candidate set returns.
		return nil, core.ErrNoCandidates
	}
	return peers, nil
}

// rankBuild ranks from scratch to the depth req reads and, for a pure model,
// installs the result. Stamps are read BEFORE the directory and snapshots: a
// mutation racing the build (realnet brokers serve concurrently; registry
// entries created on first Snapshot bump the version) then leaves the entry
// already stale and the next lookup rebuilds, which is the safe direction.
// Under the serialized simulation scheduler nothing intervenes and the
// stamps are exact. The entry's slices are immutable once installed:
// callers may alias them but never write.
func (b *Broker) rankBuild(key rankKey, creq core.Request, sel core.Ranker, pure core.PureRanker, req *selectReq) (*rankEntry, error) {
	e := &rankEntry{key: key, builtAt: creq.Now}
	depth := req.MaxResults
	if pure != nil {
		e.stamps = make([]rankStamp, len(b.shards))
		for i, sh := range b.shards {
			e.stamps[i] = rankStamp{cache: sh.cache.Stamp(), reg: sh.registry.Version()}
		}
		if depth > 0 {
			depth += len(req.Exclude)
		}
	}
	// The candidate set spans the whole network: advertisements merge from
	// every shard in canonical order, and each candidate's statistics come
	// from its owning shard, so a sharded broker ranks exactly as a single
	// one would.
	advs := b.Advertisements(jxta.AdvPeer)
	e.dirLen = len(advs)
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
		if pure == nil && slices.Contains(req.Exclude, name) {
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

	var err error
	if e.ranked, err = sel.Rank(creq, cands, depth); err != nil {
		// ErrNoCandidates (empty directory, or everything excluded for a
		// model that is not pure) and any model error pass through uncached.
		return nil, err
	}
	if pure != nil {
		e.anyTime = pure.RankNowShiftInvariant() && !creq.Now.Before(maxReadyAt)
		b.rankMu.Lock()
		b.rankInstallLocked(e)
		b.rankMu.Unlock()
	}
	return e, nil
}

// rankInstallLocked puts e in its shape's slot, or in the next slot in
// insertion order when its shape has none. Caller holds b.rankMu.
func (b *Broker) rankInstallLocked(e *rankEntry) {
	for i, old := range b.rankRing {
		if old != nil && old.key == e.key {
			b.rankRing[i] = e
			return
		}
	}
	b.rankRing[b.rankNext] = e
	b.rankNext = (b.rankNext + 1) % rankIndexSlots
}
