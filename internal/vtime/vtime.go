// Package vtime implements a conservative virtual-time scheduler.
//
// The scheduler coordinates a set of processes over a shared virtual clock.
// Processes advance the clock only by blocking in one of the scheduler's
// primitives (Sleep, Queue.Pop, Timer callbacks). When every process is
// parked, the scheduler advances the clock to the earliest pending timer
// and wakes its waiters. Virtual time therefore moves in discrete,
// deterministic jumps, and a simulated minute costs no wall time.
//
// Execution is serialized and deterministic: at most one process runs at a
// time, and processes that become runnable at the same virtual instant
// execute in the order they were woken (timer schedule order) — never in
// whatever order the Go runtime happens to schedule goroutines. This is what
// makes simulations with many concurrent processes (a swarm of peers
// transferring simultaneously) bit-reproducible for a given seed:
// same-instant contention for a link, a broker, or a queue always resolves
// the same way. Timers live in one min-heap ordered by (instant, schedule
// sequence); that order is the whole firing contract.
//
// A world runs on one thread: every process is a pooled coroutine (see
// Pool), resumed from a FIFO ready ring by the goroutine that calls Wait
// (DESIGN.md "Dispatcher rules").
//
// The package underpins internal/simnet: network links schedule message
// deliveries as timers, and protocol code written against the transport
// interfaces blocks in Queue.Pop exactly as it would block in a socket read.
package vtime

import (
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"
)

// Epoch is the instant at which every Scheduler's clock starts. A fixed epoch
// keeps traces comparable across runs.
var Epoch = time.Date(2007, time.March, 1, 0, 0, 0, 0, time.UTC)

// Scheduler is a conservative virtual-clock process scheduler. The zero value
// is not usable; call NewScheduler.
type Scheduler struct {
	mu     sync.Mutex
	now    time.Duration // virtual time since Epoch
	parked int           // processes parked on queues with no wake scheduled
	timers timerHeap     // every live timer, ordered by (at, seq)
	seq    int64
	batch  []*timerEntry // reused fire batch, see advanceLocked
	free   []*timerEntry // recycled entries, see getEntryLocked
	pool   *Pool         // coroutines processes run on

	// Serialized dispatch (see the package comment): ready holds the
	// runnable processes in wake order; the driver — the goroutine inside
	// Wait, which holds drive for as long as it is — pops it and resumes
	// cur, the one process executing. mu is released while cur runs.
	drive sync.Mutex
	ready fifo[readyItem]
	cur   *pworker

	// OnDeadlock, if non-nil, is invoked (once per quiescence, with
	// scheduler internals locked — the callback must not re-enter the
	// scheduler) when no process is runnable, no timer is pending, and at
	// least one process is still parked on a queue: nothing inside the
	// simulation can ever wake it. When nil, such processes are treated as
	// daemons (a standing service is a served queue, which parks nothing)
	// and Wait simply returns.
	OnDeadlock func(info string)

	// deadlockNotified latches OnDeadlock per quiescence so a Wait loop
	// re-checking the same stuck state reports it once.
	deadlockNotified bool
}

// readyItem is one entry in the dispatch ring: either a parked process to
// resume (w non-nil) or a process that was spawned but never started — a
// closure (fn) or a served queue's drain (q), handed a pooled coroutine only
// when its turn arrives, so spawning 100k flows queues 100k closures, not
// 100k stacks.
type readyItem struct {
	w  *pworker
	fn func()
	q  *Queue
}

// NewScheduler returns a scheduler with the clock at Epoch and no processes.
// Its processes run on the process-wide shared worker pool; SetPool installs
// a private one.
func NewScheduler() *Scheduler { return &Scheduler{pool: SharedPool()} }

// SetPool makes the scheduler run its processes on p instead of the shared
// pool. It must be called before any process is started.
func (s *Scheduler) SetPool(p *Pool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.pool = p
}

// Now returns the current virtual time.
func (s *Scheduler) Now() time.Time {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Epoch.Add(s.now)
}

// Elapsed returns the virtual time elapsed since Epoch.
func (s *Scheduler) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// admitLocked appends to the ready ring — the one way anything becomes
// runnable: a parked process (w) whose park slot the waker has already
// filled, or a fresh spawn (fn, or q's drain). Caller holds s.mu.
func (s *Scheduler) admitLocked(it readyItem) {
	s.deadlockNotified = false
	s.ready.push(it)
}

// Go starts fn as a scheduler process. The process counts as runnable until
// it returns or parks in a scheduler primitive. Processes may spawn further
// processes; a spawned process executes after its spawner parks, in spawn
// order. Called from outside any process, Go only queues fn: it runs once
// some goroutine calls Wait.
func (s *Scheduler) Go(fn func()) {
	s.mu.Lock()
	s.admitLocked(readyItem{fn: fn})
	s.mu.Unlock()
}

// parkingLocked returns the process about to park: the one the driver has
// resumed. A caller that is not a scheduler process has nobody to switch
// back to and could only hang. Caller holds s.mu, which a panic releases.
func (s *Scheduler) parkingLocked() *pworker {
	if s.cur == nil {
		s.mu.Unlock()
		panic("vtime: blocking primitive called from outside a scheduler process")
	}
	return s.cur
}

// Sleep parks the calling process for d of virtual time. Non-positive d
// returns at once without yielding. Sleep must only be called from a process
// started via Go (or an AfterFunc callback); anywhere else it panics.
func (s *Scheduler) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	w := s.parkingLocked()
	s.scheduleLocked(s.now + d).wake = w
	s.mu.Unlock()
	w.park()
}

// Timer is a cancellable virtual-time timer created by AfterFunc.
type Timer struct {
	s       *Scheduler
	fn      func()
	entry   *timerEntry
	gen     uint64 // entry generation at arming; a recycled entry is someone else's
	stopped bool
}

// Stop cancels the timer. It reports whether the call prevented the callback
// from firing. Entries are recycled once fired or cancelled (see
// getEntryLocked), so a generation mismatch means this timer's entry is
// gone — possibly reused by an unrelated timer Stop must not touch.
func (t *Timer) Stop() bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	if t.stopped || t.entry.gen != t.gen {
		return false
	}
	t.stopped = true
	t.s.cancelLocked(t.entry)
	return true
}

// Reset re-arms the timer to fire d from now, cancelling the pending firing
// if there is one, and reports whether there was. A timer that keeps being
// re-armed costs one Timer, not one per arming.
func (t *Timer) Reset(d time.Duration) bool {
	t.s.mu.Lock()
	defer t.s.mu.Unlock()
	pending := !t.stopped && t.entry.gen == t.gen
	if pending {
		t.s.cancelLocked(t.entry)
	}
	t.armLocked(d)
	return pending
}

// armLocked files the timer's entry for d from now. Caller holds s.mu.
func (t *Timer) armLocked(d time.Duration) {
	e := t.s.scheduleLocked(t.s.now + max(d, 0))
	e.spawn = t.fn
	t.entry, t.gen, t.stopped = e, e.gen, false
}

// AfterFunc schedules fn to run as a new process d of virtual time from now.
// The returned Timer can cancel it before it fires, or re-arm it.
func (s *Scheduler) AfterFunc(d time.Duration, fn func()) *Timer {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := &Timer{s: s, fn: fn}
	t.armLocked(d)
	return t
}

// getEntryLocked pops a recycled timer entry off the free list, or allocates
// one. Reuse is invisible: only (at, seq) orders firing, and seq is issued
// fresh per schedule. Caller holds s.mu.
func (s *Scheduler) getEntryLocked() *timerEntry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		return e
	}
	return &timerEntry{}
}

// putEntryLocked recycles e: the generation bump invalidates any Timer still
// holding it, and clearing the target unpins whatever it named. Caller holds
// s.mu; e must already be out of the heap.
func (s *Scheduler) putEntryLocked(e *timerEntry) {
	e.gen++
	e.spawn, e.wake, e.q, e.v = nil, nil, nil, nil
	s.free = append(s.free, e)
}

// scheduleLocked enqueues a timer entry for instant at; the caller names the
// entry's target (see timerEntry) before releasing the lock. Every caller
// schedules at or after the current instant (Sleep and AfterFunc add to now,
// PushAt clamps); advanceLocked panics on an entry that breaks this.
// Caller holds s.mu.
func (s *Scheduler) scheduleLocked(at time.Duration) *timerEntry {
	s.seq++
	s.deadlockNotified = false
	e := s.getEntryLocked()
	e.at, e.seq = at, s.seq
	s.timers.push(e)
	return e
}

// cancelLocked removes e from the heap through its maintained index and
// recycles it. Eager removal keeps the invariant that every stored entry is
// live, which makes Pending O(1). Only Timer.Stop and Timer.Reset cancel, and
// never inside advanceLocked, which holds s.mu from popping a fire batch to
// recycling it: e is in the heap. Caller holds s.mu.
func (s *Scheduler) cancelLocked(e *timerEntry) {
	s.timers.remove(e.index)
	s.putEntryLocked(e)
}

// advanceLocked moves the clock to the earliest pending timer and fires
// every entry scheduled for that instant, in schedule order. The driver
// calls it when no process is runnable. It reports false, leaving the clock
// alone, when no timer is pending: the system is quiescent. Caller holds
// s.mu.
func (s *Scheduler) advanceLocked() bool {
	if len(s.timers) == 0 {
		// Remaining parked processes (queue waiters) are daemons — unless a
		// deadlock handler wants to hear about them.
		if s.parked > 0 && s.OnDeadlock != nil && !s.deadlockNotified {
			s.deadlockNotified = true
			s.OnDeadlock(fmt.Sprintf("vtime: deadlock at %v: %d process(es) parked on queues with no runnable process and no pending timer", Epoch.Add(s.now), s.parked))
		}
		return false
	}
	at := s.timers[0].at
	if at < s.now {
		panic(fmt.Sprintf("vtime: timer in the past: %v < %v", at, s.now))
	}
	s.now = at
	// Pop every entry at this instant before firing any: the heap yields
	// the run in (at, seq) order, which is schedule order, and a timer a
	// callback schedules for this same instant waits for the next pass.
	// The batch slice is reused across advances (detached from s while
	// firing, in case a callback re-enters the scheduler).
	batch := s.batch[:0]
	s.batch = nil
	for len(s.timers) > 0 && s.timers[0].at == at {
		batch = append(batch, s.timers.remove(0))
	}
	for _, e := range batch {
		s.fireLocked(e)
	}
	// Recycle only after every entry has fired: firing may schedule new
	// timers, which must not be handed an entry still pending in this
	// batch.
	for i, e := range batch {
		s.putEntryLocked(e)
		batch[i] = nil
	}
	s.batch = batch[:0]
	return true
}

// fireLocked does what e names (see timerEntry). None of it runs a process:
// a wake or a spawn is an append to the ready ring. Caller holds s.mu.
func (s *Scheduler) fireLocked(e *timerEntry) {
	switch {
	case e.spawn != nil:
		s.admitLocked(readyItem{fn: e.spawn})
	case e.q == nil:
		s.admitLocked(readyItem{w: e.wake})
	default:
		_ = e.q.pushLocked(e.v)
	}
}

// Wait drives the scheduler from the calling goroutine (which must NOT be a
// scheduler process — that panics) until the system quiesces: no runnable
// process and no pending timer. It runs every ready process in ring order,
// each until it parks or returns, and advances the clock whenever the ring
// is empty. Processes parked on queues may still exist when it returns;
// they are treated as daemons. If another goroutine is already driving, Wait
// blocks until that one quiesces and then drives whatever is left.
func (s *Scheduler) Wait() {
	if !s.drive.TryLock() {
		if onWorker() {
			panic("vtime: Wait called from inside a scheduler process")
		}
		s.drive.Lock()
	}
	defer s.drive.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		for it, ok := s.ready.pop(); ok; it, ok = s.ready.pop() {
			s.runLocked(it)
		}
		if !s.advanceLocked() {
			return
		}
	}
}

// runLocked gives one ready process its turn: a fresh spawn is handed a
// pooled coroutine first, then the driver stays inside resume until the
// process parks or returns. Caller holds s.mu, which is released for the
// turn (and retaken even if the process panics, so Wait unwinds cleanly).
func (s *Scheduler) runLocked(it readyItem) {
	w := it.w
	if w == nil {
		w = s.pool.get()
		w.fn, w.q = it.fn, it.q
	}
	s.cur = w
	s.mu.Unlock()
	defer func() {
		s.mu.Lock()
		s.cur = nil
	}()
	w.resume()
	if w.fn == nil && w.q == nil {
		s.pool.put(w) // the process returned; its coroutine is free again
	}
}

// onWorker reports whether the calling goroutine is a pooled coroutine, by
// looking for the worker loop on its stack. Go offers no cheaper goroutine
// identity; only a Wait that finds a driver already at work pays for this.
func onWorker() bool {
	pcs := make([]uintptr, 64)
	for skip := 2; ; skip += len(pcs) {
		n := runtime.Callers(skip, pcs)
		frames := runtime.CallersFrames(pcs[:n])
		for more := n > 0; more; {
			var f runtime.Frame
			if f, more = frames.Next(); strings.HasSuffix(f.Function, "vtime.(*pworker).loop") {
				return true
			}
		}
		if n < len(pcs) {
			return false
		}
	}
}

// Pending reports the number of live timers; useful in tests. Cancelled
// entries leave the heap eagerly (see cancelLocked), so its length is the
// live count.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.timers)
}

// Running reports the number of runnable processes — the one executing, if
// any, plus those in the ready ring; useful in tests.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	n := s.ready.len()
	if s.cur != nil {
		n++
	}
	return n
}

// timerEntry is one pending timer. Besides its instant it names what firing
// it does, so that arming a timer allocates nothing:
//
//	spawn           AfterFunc: the function becomes a new process
//	wake            Sleep: the parked process becomes runnable
//	q and v         PushAt: v is pushed onto q
type timerEntry struct {
	at    time.Duration
	seq   int64
	spawn func()
	wake  *pworker
	q     *Queue
	v     any
	gen   uint64 // bumped on recycle; guards stale Timer handles
	index int    // position in the heap; -1 once popped or removed
}

// before is the firing order: earlier instant first, ties in schedule order.
func (e *timerEntry) before(o *timerEntry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// timerHeap is the scheduler's one timer store: a 4-ary min-heap ordered by
// (at, seq) whose entries record their own position, so a cancelled entry
// is removed in O(log n) without a search. It is written out to spare the
// hot path container/heap's interface calls.
type timerHeap []*timerEntry

const heapArity = 4

func (h *timerHeap) push(e *timerEntry) {
	*h = append(*h, e)
	h.up(e, len(*h)-1)
}

// remove takes the entry at position i out of the heap and returns it. The
// last entry fills the hole and sifts whichever way restores order.
func (h *timerHeap) remove(i int) *timerEntry {
	old := *h
	n := len(old) - 1
	e, last := old[i], old[n]
	old[n] = nil
	*h = old[:n]
	e.index = -1
	if i < n {
		h.down(last, i)
		h.up(last, last.index)
	}
	return e
}

// up places e at position i or above, shifting later ancestors down.
func (h timerHeap) up(e *timerEntry, i int) {
	for i > 0 {
		p := (i - 1) / heapArity
		if !e.before(h[p]) {
			break
		}
		h[i] = h[p]
		h[i].index = i
		i = p
	}
	h[i] = e
	e.index = i
}

// down places e at position i or below, shifting each level's earliest
// child up.
func (h timerHeap) down(e *timerEntry, i int) {
	for {
		first := heapArity*i + 1
		if first >= len(h) {
			break
		}
		c := first
		for j := first + 1; j < first+heapArity && j < len(h); j++ {
			if h[j].before(h[c]) {
				c = j
			}
		}
		if !h[c].before(e) {
			break
		}
		h[i] = h[c]
		h[i].index = i
		i = c
	}
	h[i] = e
	e.index = i
}
