package overlay

import (
	"fmt"
	"slices"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
)

// candTable is what every selection ranks: the directory's candidates with
// their statistics snapshots, in canonical order. A snapshot reads the clock
// only for the hour its message window ends in, every write to a record
// bumps the registry's Version and every change to the directory is a new
// merge (mergedDir.gen). So while the merge, the Version and the hour are the
// ones it was built from, the table equals fresh snapshots. The first merge
// is gen 1 (no kind is zero), so the zero table is never current.
type candTable struct {
	gen, reg uint64
	hour     int64
	cands    []core.Candidate
}

// selectPeers resolves the requested model and ranks the table, minus the
// request's exclusions, to MaxResults names. Nothing under mu parks a
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
	b.mu.Lock()
	defer b.mu.Unlock()
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
// The Version is read before the records, as the merge reads its stamps
// before the caches: a write racing the build (realnet brokers serve
// concurrently, and a record made on first read bumps the registry) leaves
// the table stale under what it was built from, and the next selection
// builds it again. Caller holds mu.
func (b *Broker) refreshTableLocked(now time.Time) {
	t := &b.table
	hour := now.Unix() / 3600 // as the message window reads it
	reg := b.registry.Version()
	d := b.dirLocked(jxta.AdvPeer)
	if t.gen == d.gen && t.reg == reg && t.hour == hour {
		return
	}
	t.gen, t.reg, t.hour = d.gen, reg, hour
	t.cands = slices.Grow(t.cands[:0], len(d.advs))[:len(d.advs)]
	for i := range d.advs {
		b.registry.Peer(d.advs[i].Name).SnapshotInto(&t.cands[i].Snapshot, now)
	}
}
