// Package vtime implements a conservative virtual-time scheduler.
//
// The scheduler coordinates a set of goroutines ("processes") over a shared
// virtual clock. Processes advance the clock only by blocking in one of the
// scheduler's primitives (Sleep, Queue.Pop, Timer callbacks). When every
// registered process is parked, the scheduler advances the clock to the
// earliest pending timer and wakes its waiters. Virtual time therefore moves
// in discrete, deterministic jumps, and a simulated minute costs no wall
// time.
//
// Execution is serialized and deterministic: at most one process runs at a
// time, and processes that become runnable at the same virtual instant
// execute in the order they were woken (timer schedule order) — never in
// whatever order the Go runtime happens to schedule their goroutines. This
// is what makes simulations with many concurrent processes (a swarm of
// peers transferring simultaneously) bit-reproducible for a given seed:
// same-instant contention for a link, a broker, or a queue always resolves
// the same way. A single-driver simulation pays nothing for the gate; it
// was never parallel to begin with. Timers live in one min-heap ordered by
// (instant, schedule sequence); that order is the whole firing contract.
//
// Two mechanisms keep the serialized dispatch cheap at 10k–100k processes.
// First, handoffs are direct: when the running process parks and another is
// ready, the parker signals the successor's single wake channel in its own
// unlock path — the execution slot never goes idle, and the woken goroutine
// wakes exactly once with its value already in place. Second, processes run
// on pooled worker goroutines (see Pool): a spawned process occupies no
// goroutine until its first turn arrives, and a finished process's warm
// stack is reused by the next spawn, so churn-heavy simulations stop paying
// goroutine creation and teardown per peer, flow, and timer fire.
//
// The package underpins internal/simnet: network links schedule message
// deliveries as timers, and protocol code written against the transport
// interfaces blocks in Queue.Pop exactly as it would block in a socket read.
package vtime

import (
	"fmt"
	"sync"
	"time"
)

// Epoch is the instant at which every Scheduler's clock starts. A fixed epoch
// keeps traces comparable across runs.
var Epoch = time.Date(2007, time.March, 1, 0, 0, 0, 0, time.UTC)

// Scheduler is a conservative virtual-clock process scheduler. The zero value
// is not usable; call NewScheduler.
type Scheduler struct {
	mu      sync.Mutex
	now     time.Duration // virtual time since Epoch
	running int           // processes currently runnable (not parked)
	started int           // processes ever started
	parked  int           // processes parked on queues with no wake scheduled
	timers  timerHeap     // every live timer, ordered by (at, seq)
	seq     int64
	batch   []*timerEntry // reused fire batch, see advanceLocked
	free    []*timerEntry // recycled entries, see getEntryLocked
	quiet   *sync.Cond    // signalled when the system quiesces
	pool    *Pool         // worker goroutines processes run on

	// Serialized dispatch (see the package comment): active marks the one
	// process currently executing; ready is a ring buffer (live region
	// ready[readyHead:]) of processes that are runnable but waiting their
	// deterministic turn, in wake order. Invariant throughout:
	// running == (active ? 1 : 0) + len(ready) - readyHead.
	active    bool
	ready     []readyItem
	readyHead int

	// OnDeadlock, if non-nil, is invoked (once per quiescence, with
	// scheduler internals locked — the callback must not re-enter the
	// scheduler) when no process is runnable, no timer is pending, and at
	// least one process is still parked on a queue: nothing inside the
	// simulation can ever wake it. When nil, such processes are treated as
	// daemons (a broker handler parked in Pop between requests is the
	// normal case) and Wait simply returns.
	OnDeadlock func(info string)

	// deadlockNotified latches OnDeadlock per quiescence so a Wait loop
	// re-checking the same stuck state reports it once.
	deadlockNotified bool
}

// readyItem is one entry in the dispatch ring: either a parked process to
// signal (wake non-nil) or a process that was spawned but never started —
// its closure is dispatched onto a pooled worker only when its turn
// arrives, so spawning 100k flows queues 100k closures, not 100k blocked
// goroutines.
type readyItem struct {
	wake chan struct{}
	fn   func()
}

// NewScheduler returns a scheduler with the clock at Epoch and no processes.
// Its processes run on the process-wide shared worker pool; SetPool installs
// a private one.
func NewScheduler() *Scheduler {
	s := &Scheduler{pool: SharedPool()}
	s.quiet = sync.NewCond(&s.mu)
	return s
}

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

// grantPool recycles wake channels. Each channel carries exactly one
// buffered signal per use, so a receiver that drained it may return it for
// reuse. Reuse cannot perturb wake order: which channel a waiter holds is
// invisible to the dispatcher, which only tracks the FIFO of ready items.
var grantPool = sync.Pool{New: func() any { return make(chan struct{}, 1) }}

func putGrant(g chan struct{}) { grantPool.Put(g) }

// pushReadyLocked appends a ready item to the dispatch ring. When the live
// region no longer starts at 0 and the backing array is full, the live
// items slide down instead of growing the array, so a long-lived scheduler
// reuses one allocation. Caller holds s.mu.
func (s *Scheduler) pushReadyLocked(it readyItem) {
	if s.readyHead > 0 && len(s.ready) == cap(s.ready) {
		n := copy(s.ready, s.ready[s.readyHead:])
		clear(s.ready[n:])
		s.ready = s.ready[:n]
		s.readyHead = 0
	}
	s.ready = append(s.ready, it)
}

// wakeLocked hands the execution slot to a parked process whose wake channel
// is ch, or queues it behind the currently active process. Caller holds s.mu
// and has already incremented s.running. The single buffered send is the
// entire wake: the process's value (queue item, timeout marker) was stored
// in its waiter before this call, so the goroutine wakes exactly once.
func (s *Scheduler) wakeLocked(ch chan struct{}) {
	s.deadlockNotified = false
	if s.active {
		s.pushReadyLocked(readyItem{wake: ch})
		return
	}
	s.active = true
	ch <- struct{}{}
}

// spawnLocked registers fn as a new process. If the execution slot is free
// it is dispatched onto a pooled worker immediately; otherwise the closure
// itself waits in the ready ring and only occupies a worker once its turn
// arrives. Caller holds s.mu.
func (s *Scheduler) spawnLocked(fn func()) {
	s.running++
	s.started++
	s.deadlockNotified = false
	if s.active {
		s.pushReadyLocked(readyItem{fn: fn})
		return
	}
	s.active = true
	s.pool.dispatch(poolJob{s: s, fn: fn})
}

// yieldLocked releases the execution slot when the active process parks or
// exits. The oldest ready process takes over directly in this, the parker's,
// unlock path — the slot stays occupied through the handoff (active never
// flips false), and the successor is either signalled on its wake channel or,
// if it never ran, dispatched onto a pooled worker. When nothing is ready the
// clock advances to the next timer instant. Caller holds s.mu and has already
// decremented s.running.
func (s *Scheduler) yieldLocked() {
	if s.readyHead < len(s.ready) {
		it := s.ready[s.readyHead]
		s.ready[s.readyHead] = readyItem{}
		s.readyHead++
		if s.readyHead == len(s.ready) {
			s.ready = s.ready[:0]
			s.readyHead = 0
		}
		if it.wake != nil {
			it.wake <- struct{}{}
		} else {
			s.pool.dispatch(poolJob{s: s, fn: it.fn})
		}
		return
	}
	s.active = false
	s.advanceLocked()
}

// Go starts fn as a scheduler process. The process counts as runnable until
// it returns or parks in a scheduler primitive. Processes may spawn further
// processes; a spawned process executes after its spawner parks, in spawn
// order.
func (s *Scheduler) Go(fn func()) {
	s.mu.Lock()
	s.spawnLocked(fn)
	s.mu.Unlock()
}

func (s *Scheduler) exit() {
	s.mu.Lock()
	s.running--
	s.yieldLocked()
	s.mu.Unlock()
}

// Sleep parks the calling process for d of virtual time. Non-positive d
// yields without advancing the clock. Sleep must only be called from a
// process started via Go (or a Timer/AfterFunc callback).
func (s *Scheduler) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	ch := grantPool.Get().(chan struct{})
	s.mu.Lock()
	s.scheduleLocked(s.now+d, func() {
		s.running++
		s.wakeLocked(ch)
	})
	s.running--
	s.yieldLocked()
	s.mu.Unlock()
	<-ch
	putGrant(ch)
}

// Timer is a cancellable virtual-time timer created by AfterFunc.
type Timer struct {
	s       *Scheduler
	entry   *timerEntry
	gen     uint64 // entry generation at creation; a recycled entry is someone else's
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

// AfterFunc schedules fn to run as a new process d of virtual time from now.
// The returned Timer can cancel it before it fires.
func (s *Scheduler) AfterFunc(d time.Duration, fn func()) *Timer {
	if d < 0 {
		d = 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	entry := s.scheduleLocked(s.now+d, func() {
		s.spawnLocked(fn)
	})
	return &Timer{s: s, entry: entry, gen: entry.gen}
}

// callbackAt schedules fn to run with the scheduler lock held at virtual time
// at. It is the low-level hook used by queues and simnet links; fn must not
// block or re-enter the scheduler other than waking queue waiters.
func (s *Scheduler) callbackAt(at time.Duration, fn func()) *timerEntry {
	s.mu.Lock()
	defer s.mu.Unlock()
	if at < s.now {
		at = s.now
	}
	return s.scheduleLocked(at, fn)
}

// getEntryLocked pops a recycled timer entry off the free list, or allocates
// one. Entries return to the list in cancelLocked and advanceLocked with
// their generation bumped; reuse is invisible to scheduling order because an
// entry's identity plays no part in firing order — only (at, seq) does, and
// seq is issued fresh per schedule. Caller holds s.mu.
func (s *Scheduler) getEntryLocked() *timerEntry {
	if n := len(s.free); n > 0 {
		e := s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
		e.cancelled = false
		return e
	}
	return &timerEntry{}
}

// putEntryLocked recycles e: the generation bump invalidates any Timer still
// holding it, and dropping fire unpins the callback closure. Caller holds
// s.mu; e must already be out of the heap.
func (s *Scheduler) putEntryLocked(e *timerEntry) {
	e.gen++
	e.fire = nil
	s.free = append(s.free, e)
}

// scheduleLocked enqueues a timer entry. Every caller schedules at or after
// the current instant (Sleep and AfterFunc add to now, callbackAt clamps);
// advanceLocked panics on an entry that breaks this. Caller holds s.mu.
func (s *Scheduler) scheduleLocked(at time.Duration, fn func()) *timerEntry {
	s.seq++
	s.deadlockNotified = false
	e := s.getEntryLocked()
	e.at, e.seq, e.fire = at, s.seq, fn
	s.timers.push(e)
	return e
}

// cancelLocked marks e cancelled and removes it from the heap through its
// maintained index. Eager removal keeps the invariant that every stored
// entry is live, which makes Pending O(1). An entry already popped into the
// current fire batch (index < 0) is only marked; advanceLocked skips it and
// recycles it after the batch completes. Caller holds s.mu.
func (s *Scheduler) cancelLocked(e *timerEntry) {
	if e == nil || e.cancelled {
		return
	}
	e.cancelled = true
	if e.index >= 0 {
		s.timers.remove(e.index)
		s.putEntryLocked(e)
	}
}

// advanceLocked is called whenever running may have dropped to zero. If no
// process is runnable it advances the clock to the earliest pending timer and
// fires every entry scheduled for that instant, in schedule order. Caller
// holds s.mu.
func (s *Scheduler) advanceLocked() {
	for s.running == 0 {
		if len(s.timers) == 0 {
			// Quiescent: no runnable process, no pending event. Remaining
			// parked processes (queue waiters) are daemons — unless a
			// deadlock handler wants to hear about them.
			if s.parked > 0 && s.OnDeadlock != nil && !s.deadlockNotified {
				s.deadlockNotified = true
				s.OnDeadlock(fmt.Sprintf("vtime: deadlock at %v: %d process(es) parked on queues with no runnable process and no pending timer", Epoch.Add(s.now), s.parked))
			}
			s.quiet.Broadcast()
			return
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
			if e.cancelled {
				// A callback earlier in this batch cancelled e after it was
				// already popped (e.g. a same-instant push beating a pop
				// deadline): firing it anyway would double-wake its waiter.
				continue
			}
			e.fire()
		}
		// Recycle only after every callback has run: a callback may schedule
		// new timers, which must not be handed an entry still pending in this
		// batch.
		for i, e := range batch {
			s.putEntryLocked(e)
			batch[i] = nil
		}
		s.batch = batch[:0]
		// Firing may have made processes runnable; if not, loop to the next
		// instant.
	}
}

// Wait blocks the caller (which must NOT be a scheduler process) until the
// system quiesces: no runnable process and no pending timer. Processes parked
// on queues may still exist; they are treated as daemons. Wait also drives
// the clock when timers were registered from outside any process (e.g. a test
// calling AfterFunc directly).
func (s *Scheduler) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for {
		if s.running == 0 {
			s.advanceLocked()
			if s.running == 0 && s.pendingLocked() == 0 {
				return
			}
		}
		s.quiet.Wait()
	}
}

// pendingLocked counts live timers. Cancelled entries leave the heap eagerly
// (see cancelLocked), so its length is the live count — O(1) instead of a
// scan. Caller holds s.mu.
func (s *Scheduler) pendingLocked() int {
	return len(s.timers)
}

// Pending reports the number of live timers; useful in tests.
func (s *Scheduler) Pending() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pendingLocked()
}

// Running reports the number of runnable processes; useful in tests.
func (s *Scheduler) Running() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.running
}

type timerEntry struct {
	at        time.Duration
	seq       int64
	fire      func()
	cancelled bool
	gen       uint64 // bumped on recycle; guards stale Timer handles
	index     int    // position in the heap; -1 once popped or removed
}

// before is the firing order: earlier instant first, ties in schedule order.
func (e *timerEntry) before(o *timerEntry) bool {
	return e.at < o.at || (e.at == o.at && e.seq < o.seq)
}

// timerHeap is the scheduler's one timer store: a 4-ary min-heap ordered by
// (at, seq) whose entries record their own position, so the root is the next
// timer to fire and a cancelled entry is removed in O(log n) without a
// search. It is written out rather than built on the standard library's
// heap to spare the hot path the interface boxing and dynamic Less/Swap
// calls.
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
