package overlay

import (
	"fmt"
	"slices"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/stats"
)

// candTable is what every selection ranks: the directory's candidates with
// their statistics snapshots, in canonical order. A snapshot reads the clock
// only for the hour its message window ends in, every write to a record
// bumps its registry's Version and every change to the live directory bumps
// its cache's Stamp. So while the hour and every shard's stamps are the ones
// it was built under, the table equals fresh snapshots.
type candTable struct {
	built  bool
	hour   int64
	stamps []tableStamp // one per shard
	cands  []core.Candidate
}

// tableStamp is one shard's versions when the table was built.
type tableStamp struct{ cache, reg uint64 }

// selectPeers resolves the requested model and ranks the table, minus the
// request's exclusions, to MaxResults names. Nothing under selMu parks a
// process: the directory, the records and the models take sync locks only.
func (b *Broker) selectPeers(req selectReq) ([]string, error) {
	sel, ok := b.selectors[req.Model]
	if core.UsesPreferences(req.Model) {
		// Built per request from the user's own ranking.
		sel, ok = core.NewUserPreference(req.Preferred), true
	}
	if !ok {
		return nil, fmt.Errorf("overlay: unknown selection model %q", req.Model)
	}
	now := b.host.Now()
	b.selMu.Lock()
	defer b.selMu.Unlock()
	b.refreshTableLocked(now)
	b.scratch = slices.Grow(b.scratch[:0], len(b.table.cands))
	for i := range b.table.cands {
		if c := &b.table.cands[i]; !slices.Contains(req.Exclude, c.Snapshot.Peer) {
			b.scratch = append(b.scratch, *c)
		}
	}
	return sel.Rank(core.Request{
		Kind:      core.RequestKind(req.Kind),
		SizeBytes: req.SizeBytes,
		WorkUnits: req.WorkUnits,
		Now:       now,
	}, b.scratch, req.MaxResults)
}

// refreshTableLocked rebuilds the table in place unless it is current at now.
// Stamps are read before the directory and the records: a write racing the
// build (realnet brokers serve concurrently, and a record made on first read
// bumps its registry) leaves the table stale under its stamps, and the next
// selection builds it again. Caller holds selMu.
func (b *Broker) refreshTableLocked(now time.Time) {
	t := &b.table
	hour := now.Unix() / 3600 // as the message window reads it
	current := t.built && t.hour == hour
	for i, sh := range b.shards {
		if s := (tableStamp{sh.cache.Stamp(), sh.registry.Version()}); s != t.stamps[i] {
			t.stamps[i], current = s, false
		}
	}
	if current {
		return
	}
	t.built, t.hour = true, hour
	b.dirMu.Lock()
	defer b.dirMu.Unlock()
	advs := b.dirLocked(jxta.AdvPeer).advs
	t.cands = slices.Grow(t.cands[:0], len(advs))[:len(advs)]
	for i := range advs {
		name := advs[i].Name
		b.shardOf(name).registry.Peer(name).SnapshotInto(&t.cands[i].Snapshot, now, stats.DefaultWindowHours)
	}
}
