// Package stats maintains the per-peer historical and statistical data that
// the paper's selection models consume.
//
// Section 2.2 of the paper enumerates the criteria: percentages of
// successfully sent messages (current session, all sessions, last k hours),
// inbox/outbox queue lengths (now and average), task acceptance/execution
// percentages (session and total), file-transfer success and cancellation
// percentages, and pending transfers. The scheduling-based model additionally
// needs ready-time estimates built from historical execution times, queue
// lengths and CPU speed.
//
// A Registry holds one PeerStats per peer; brokers own a Registry and feed it
// from protocol events. Snapshots are plain values safe to hand to selection
// code.
package stats

import (
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Ratio counts successes against attempts and reports a percentage.
type Ratio struct {
	OK    int64
	Total int64
}

// Record adds one attempt.
func (r *Ratio) Record(ok bool) {
	r.Total++
	if ok {
		r.OK++
	}
}

// PercentOr returns the success percentage in [0,100], or def when no
// attempt was recorded: an unknown peer scores neutrally, not as a failure.
func (r Ratio) PercentOr(def float64) float64 {
	if r.Total == 0 {
		return def
	}
	return 100 * float64(r.OK) / float64(r.Total)
}

// Gauge tracks an instantaneous value and its arithmetic mean over samples.
type Gauge struct {
	Now     float64
	sum     float64
	samples int64
}

// Set records a new instantaneous value.
func (g *Gauge) Set(v float64) {
	g.Now = v
	g.sum += v
	g.samples++
}

// Avg returns the mean of all samples (0 before any sample).
func (g Gauge) Avg() float64 {
	if g.samples == 0 {
		return 0
	}
	return g.sum / float64(g.samples)
}

// ewmaWeight is the weight an EWMA gives each new sample.
const ewmaWeight = 0.3

// EWMA is an exponentially weighted moving average; zero value is empty.
type EWMA struct {
	value float64
	set   bool
}

// Observe folds in a sample with weight ewmaWeight.
func (e *EWMA) Observe(v float64) {
	if !e.set {
		e.value, e.set = v, true
		return
	}
	e.value = (1-ewmaWeight)*e.value + ewmaWeight*v
}

// Value returns the current average, or def if no sample was observed.
func (e EWMA) Value(def float64) float64 {
	if !e.set {
		return def
	}
	return e.value
}

// hourBuckets is a ring of per-hour success counters backing the paper's
// "last k hours" criteria: one slot for each hour a Snapshot reads.
type hourBuckets struct {
	buckets [windowHours]Ratio
	stamped [windowHours]int64 // absolute hour number each bucket holds
}

const windowHours = DefaultWindowHours

func (h *hourBuckets) record(now time.Time, ok bool) {
	hour := now.Unix() / 3600
	i := int(hour % windowHours)
	if h.stamped[i] != hour {
		h.buckets[i] = Ratio{}
		h.stamped[i] = hour
	}
	h.buckets[i].Record(ok)
}

// percentLast aggregates the most recent k hourly buckets; a nil ring, a
// peer never sent a message, reads def.
func (h *hourBuckets) percentLast(now time.Time, k int, def float64) float64 {
	if h == nil {
		return def
	}
	k = min(k, windowHours)
	hour := now.Unix() / 3600
	var agg Ratio
	for j := 0; j < k; j++ {
		hr := hour - int64(j)
		i := int(((hr % windowHours) + windowHours) % windowHours)
		if h.stamped[i] == hr {
			agg.OK += h.buckets[i].OK
			agg.Total += h.buckets[i].Total
		}
	}
	return agg.PercentOr(def)
}

// PeerStats accumulates everything known about one peer. All methods are
// safe for concurrent use.
type PeerStats struct {
	mu   sync.Mutex
	peer string
	now  func() time.Time
	// ver is the owning Registry's mutation counter (nil standalone): every
	// state change bumps it, so readers can cache views derived from it.
	ver *atomic.Uint64

	// Messaging.
	msgTotal  Ratio
	msgHourly *hourBuckets // made on the first message
	outbox    Gauge
	inbox     Gauge

	// Tasks.
	taskExecTotal   Ratio
	taskAcceptTotal Ratio
	execTime        EWMA // seconds per work unit executions
	queueLen        int  // tasks currently queued on the peer
	readyAt         time.Time

	// Files. fileSent/cancel describe the peer as a transfer sink;
	// originated describes it as a source (multi-source workloads).
	fileSentTotal   Ratio
	cancelTotal     Ratio // Record(true) = a cancellation happened
	pendingTransfer int
	originated      int64 // launches sourced
	bytesOriginated int64

	// Capabilities and link quality.
	cpuScore      float64
	transferRate  EWMA // bytes/second
	petitionDelay EWMA // seconds
}

// NewPeerStats returns empty statistics for peer; now supplies timestamps
// (virtual time under simnet).
func NewPeerStats(peer string, now func() time.Time) *PeerStats {
	return &PeerStats{peer: peer, now: now}
}

// Peer returns the peer name.
func (p *PeerStats) Peer() string { return p.peer }

// update applies f to the record under its lock, bumping the owning
// registry's mutation counter.
func (p *PeerStats) update(f func()) {
	p.mu.Lock()
	defer p.mu.Unlock()
	f()
	if p.ver != nil {
		p.ver.Add(1)
	}
}

// RecordMessage records a message send attempt toward the peer.
func (p *PeerStats) RecordMessage(ok bool) {
	p.update(func() {
		p.msgTotal.Record(ok)
		if p.msgHourly == nil {
			p.msgHourly = new(hourBuckets)
		}
		p.msgHourly.record(p.now(), ok)
	})
}

// SetQueues records instantaneous inbox/outbox lengths reported by the peer.
func (p *PeerStats) SetQueues(inbox, outbox int) {
	p.update(func() {
		p.inbox.Set(float64(inbox))
		p.outbox.Set(float64(outbox))
	})
}

// RecordTaskOffer records whether the peer accepted an offered task.
func (p *PeerStats) RecordTaskOffer(accepted bool) {
	p.update(func() { p.taskAcceptTotal.Record(accepted) })
}

// RecordTaskExecution records a completed (or failed) task run and its
// normalized duration in seconds per work unit.
func (p *PeerStats) RecordTaskExecution(ok bool, secondsPerUnit float64) {
	p.update(func() {
		p.taskExecTotal.Record(ok)
		if ok && secondsPerUnit > 0 {
			p.execTime.Observe(secondsPerUnit)
		}
	})
}

// SetQueueLen records the number of tasks queued at the peer.
func (p *PeerStats) SetQueueLen(n int) { p.update(func() { p.queueLen = n }) }

// SetReadyAt records the broker's estimate of when the peer becomes idle.
func (p *PeerStats) SetReadyAt(t time.Time) { p.update(func() { p.readyAt = t }) }

// RecordFileSent records a completed (ok) or failed file transmission.
func (p *PeerStats) RecordFileSent(ok bool) { p.update(func() { p.fileSentTotal.Record(ok) }) }

// RecordTransferOutcome records whether a transfer was cancelled.
func (p *PeerStats) RecordTransferOutcome(cancelled bool) {
	p.update(func() { p.cancelTotal.Record(cancelled) })
}

// RecordTransferOriginated records a transmission launch this peer sourced,
// the origin-side mirror of RecordFileSent: one record per launch. bytes is
// the payload size, counted for completed launches only.
func (p *PeerStats) RecordTransferOriginated(ok bool, bytes int) {
	p.update(func() {
		p.originated++
		if ok && bytes > 0 {
			p.bytesOriginated += int64(bytes)
		}
	})
}

// AddPendingTransfers adjusts the pending-transfer count by delta.
func (p *PeerStats) AddPendingTransfers(delta int) {
	p.update(func() { p.pendingTransfer = max(p.pendingTransfer+delta, 0) })
}

// SetCPUScore records the peer's advertised relative CPU speed.
func (p *PeerStats) SetCPUScore(score float64) { p.update(func() { p.cpuScore = score }) }

// ObserveTransferRate folds in a measured transfer (bytes over dur).
func (p *PeerStats) ObserveTransferRate(bytes int, dur time.Duration) {
	if bytes > 0 && dur > 0 {
		p.update(func() { p.transferRate.Observe(float64(bytes) / dur.Seconds()) })
	}
}

// ObservePetitionDelay folds in a measured petition round-trip.
func (p *PeerStats) ObservePetitionDelay(d time.Duration) {
	if d >= 0 {
		p.update(func() { p.petitionDelay.Observe(d.Seconds()) })
	}
}

// Snapshot is an immutable view of a peer's statistics. Percentages are in
// [0,100]; unknown values take the neutral defaults documented per field. A
// run is one session, so each Pct*Session criterion reads what its Pct*Total
// twin reads: the paper's "current session" and "all sessions" coincide.
type Snapshot struct {
	Peer string

	// Messaging criteria (default 100: unknown peers score neutrally).
	PctMsgSession float64
	PctMsgTotal   float64
	PctMsgLastK   float64
	OutboxNow     float64
	OutboxAvg     float64
	InboxNow      float64
	InboxAvg      float64

	// Task criteria.
	PctTaskExecSession   float64
	PctTaskExecTotal     float64
	PctTaskAcceptSession float64
	PctTaskAcceptTotal   float64
	SecondsPerUnit       float64 // default 1
	QueueLen             float64
	ReadyAt              time.Time

	// File criteria.
	PctFileSentSession float64
	PctFileSentTotal   float64
	PctCancelSession   float64 // percentage of transfers cancelled (default 0)
	PctCancelTotal     float64
	PendingTransfers   float64

	// Origination (the peer as a transfer source, not sink). Counters are
	// launch-level, mirroring PctFileSent*: a relaunched flow records one
	// entry per transmission launch on both the sink and origin side.
	TransfersOriginated float64 // transmission launches this peer sourced
	BytesOriginated     float64 // payload bytes of completed sourced launches

	// Capabilities.
	CPUScore      float64       // default 1
	TransferRate  float64       // bytes/second; default 0 = unknown
	PetitionDelay time.Duration // default 0 = unknown
}

// DefaultWindowHours is the message window of a Snapshot: PctMsgLastK
// covers the last 24 hours.
const DefaultWindowHours = 24

// Snapshot returns the peer's statistics now.
func (p *PeerStats) Snapshot() (s Snapshot) {
	p.SnapshotInto(&s, p.now())
	return s
}

// SnapshotInto sets every field of dst to what Snapshot returns at now. A
// caller filling one slot per peer at one instant (the broker's candidate
// table) reads the clock once and copies no Snapshot.
func (p *PeerStats) SnapshotInto(dst *Snapshot, now time.Time) {
	p.mu.Lock()
	defer p.mu.Unlock()
	dst.Peer = p.peer

	dst.PctMsgTotal = p.msgTotal.PercentOr(100)
	dst.PctMsgSession = dst.PctMsgTotal
	dst.PctMsgLastK = p.msgHourly.percentLast(now, DefaultWindowHours, 100)
	dst.OutboxNow = p.outbox.Now
	dst.OutboxAvg = p.outbox.Avg()
	dst.InboxNow = p.inbox.Now
	dst.InboxAvg = p.inbox.Avg()

	dst.PctTaskExecTotal = p.taskExecTotal.PercentOr(100)
	dst.PctTaskExecSession = dst.PctTaskExecTotal
	dst.PctTaskAcceptTotal = p.taskAcceptTotal.PercentOr(100)
	dst.PctTaskAcceptSession = dst.PctTaskAcceptTotal
	dst.SecondsPerUnit = p.execTime.Value(1)
	dst.QueueLen = float64(p.queueLen)
	dst.ReadyAt = p.readyAt

	dst.PctFileSentTotal = p.fileSentTotal.PercentOr(100)
	dst.PctFileSentSession = dst.PctFileSentTotal
	dst.PctCancelTotal = p.cancelTotal.PercentOr(0)
	dst.PctCancelSession = dst.PctCancelTotal
	dst.PendingTransfers = float64(p.pendingTransfer)

	dst.TransfersOriginated = float64(p.originated)
	dst.BytesOriginated = float64(p.bytesOriginated)

	dst.CPUScore = p.cpuScore
	if dst.CPUScore <= 0 {
		dst.CPUScore = 1
	}
	dst.TransferRate = p.transferRate.Value(0)
	dst.PetitionDelay = time.Duration(p.petitionDelay.Value(0) * float64(time.Second))
}

// Registry is a thread-safe collection of PeerStats, one per peer.
type Registry struct {
	mu    sync.Mutex
	now   func() time.Time
	peers map[string]*PeerStats
	ver   atomic.Uint64
}

// NewRegistry returns an empty registry; now supplies timestamps.
func NewRegistry(now func() time.Time) *Registry {
	return &Registry{now: now, peers: make(map[string]*PeerStats)}
}

// Peer returns the stats for a peer, creating them on first use. The record
// keeps its own copy of name, which may be a substring of a decoded frame
// the registry must not pin.
func (r *Registry) Peer(name string) *PeerStats {
	r.mu.Lock()
	defer r.mu.Unlock()
	p, ok := r.peers[name]
	if !ok {
		name = strings.Clone(name)
		p = NewPeerStats(name, r.now)
		p.ver = &r.ver
		r.peers[name] = p
		r.ver.Add(1)
	}
	return p
}

// PeerBytes is Peer for a name held as bytes, a decoded frame's field say:
// a known peer is found without a copy.
func (r *Registry) PeerBytes(name []byte) *PeerStats {
	r.mu.Lock()
	p := r.peers[string(name)]
	r.mu.Unlock()
	if p == nil {
		p = r.Peer(string(name))
	}
	return p
}

// Version returns the registry's mutation counter. It advances on every
// state change of every registered peer and on peer creation, so a Snapshot
// taken at one reading is still exact at an equal later one: the broker's
// candidate table caches on it.
func (r *Registry) Version() uint64 { return r.ver.Load() }

// Names returns all known peer names, sorted.
func (r *Registry) Names() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	names := make([]string, 0, len(r.peers))
	for n := range r.peers {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Snapshots returns a snapshot per known peer, sorted by name.
func (r *Registry) Snapshots() []Snapshot {
	names := r.Names()
	out := make([]Snapshot, 0, len(names))
	for _, n := range names {
		out = append(out, r.Peer(n).Snapshot())
	}
	return out
}

// Union presents several Registries as one view: per-peer access routes to
// the owning registry via pick, and whole-view reads merge every registry in
// a single Registry's sorted order. Only the benchmark's union probe uses it.
type Union struct {
	regs []*Registry
	pick func(peer string) *Registry
}

// NewUnion builds a union over regs; pick maps a peer name to its owning
// registry.
func NewUnion(regs []*Registry, pick func(peer string) *Registry) *Union {
	return &Union{regs: regs, pick: pick}
}

// Peer returns the stats for a peer from its owning registry, creating them
// on first use.
func (u *Union) Peer(name string) *PeerStats { return u.pick(name).Peer(name) }

// Names returns all known peer names across registries, sorted.
func (u *Union) Names() []string {
	var names []string
	for _, r := range u.regs {
		names = append(names, r.Names()...)
	}
	sort.Strings(names)
	return names
}

// Snapshots returns a snapshot per known peer across registries, sorted by
// name.
func (u *Union) Snapshots() []Snapshot {
	names := u.Names()
	out := make([]Snapshot, 0, len(names))
	for _, n := range names {
		out = append(out, u.Peer(n).Snapshot())
	}
	return out
}
