package vtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refTimer is one timer of the reference store. proc marks a timer whose
// firing is observed only when the process it wakes or spawns gets its turn
// (Sleep, AfterFunc); the others are lock-held callbacks observed as they
// fire.
type refTimer struct {
	at   time.Duration
	seq  int
	id   int
	proc bool
}

// refTimers is the oracle the scheduler's heap is checked against: a slice
// kept sorted by (at, seq), with linear-time everything.
type refTimers struct {
	pending []refTimer
	seq     int
}

func (r *refTimers) schedule(at time.Duration, id int, proc bool) {
	r.seq++
	// seq only grows, so behind every entry at or before `at` is sorted.
	i := sort.Search(len(r.pending), func(i int) bool { return r.pending[i].at > at })
	r.pending = slices.Insert(r.pending, i, refTimer{at, r.seq, id, proc})
}

func (r *refTimers) cancel(id int) bool {
	for i, t := range r.pending {
		if t.id == id {
			r.pending = slices.Delete(r.pending, i, i+1)
			return true
		}
	}
	return false
}

// popInstant removes and returns every timer at the earliest instant.
func (r *refTimers) popInstant() []refTimer {
	n := 0
	for n < len(r.pending) && r.pending[n].at == r.pending[0].at {
		n++
	}
	batch := slices.Clone(r.pending[:n])
	r.pending = r.pending[n:]
	return batch
}

// diffRun drives one scheduler and the reference in lock step. Every firing
// the scheduler makes is matched against the reference's next one, and every
// callback and process then draws more schedule / cancel / Stop actions from
// the shared rng and applies them to both. Execution is serialized by the
// scheduler itself (lock-held callbacks, one process at a time), so the
// harness state needs no lock of its own.
type diffRun struct {
	t   *testing.T
	s   *Scheduler
	rng *rand.Rand
	ref refTimers
	now time.Duration // virtual time at the latest observation

	batch []refTimer // reference's current instant: entries not yet seen to fire
	runq  []refTimer // fired process timers whose process has not run yet

	entries []*timerEntry // by id; what a queue would hold on to
	timers  []*Timer      // by id; nil for callback timers
	fired   int
	bad     bool
}

func (d *diffRun) failf(format string, args ...any) {
	if !d.bad {
		d.bad = true
		d.t.Errorf("after %d firings at %v: %s", d.fired, d.now, fmt.Sprintf(format, args...))
	}
}

func (d *diffRun) locked(fn func()) {
	d.s.mu.Lock()
	defer d.s.mu.Unlock()
	fn()
}

// delay draws a horizon: zero, sub-tick, around the old wheel's 268ms and
// 17s level boundaries, far out, or exactly onto an instant another timer
// already waits for.
func (d *diffRun) delay() time.Duration {
	switch d.rng.Intn(8) {
	case 0:
		return 0
	case 1:
		return time.Duration(d.rng.Intn(1000))
	case 2:
		return time.Duration(d.rng.Intn(int(2 * time.Millisecond)))
	case 3:
		return 1<<28 + time.Duration(d.rng.Intn(2001)-1000)
	case 4:
		return 1<<34 + time.Duration(d.rng.Intn(2001)-1000)
	case 5:
		return time.Duration(d.rng.Int63n(int64(time.Minute)))
	}
	if n := len(d.ref.pending); n > 0 {
		return d.ref.pending[d.rng.Intn(n)].at - d.now
	}
	return time.Millisecond
}

// scheduleCallback adds a lock-held callback timer. Caller holds s.mu.
func (d *diffRun) scheduleCallback(delay time.Duration) {
	id := len(d.entries)
	d.ref.schedule(d.now+delay, id, false)
	e := d.s.scheduleLocked(d.now+delay, func() { d.onCallback(id) })
	d.entries = append(d.entries, e)
	d.timers = append(d.timers, nil)
}

// scheduleProcess adds an AfterFunc timer. Process context only.
func (d *diffRun) scheduleProcess(delay time.Duration) {
	id := len(d.entries)
	d.ref.schedule(d.now+delay, id, true)
	tm := d.s.AfterFunc(delay, func() { d.onProcess(id) })
	d.entries = append(d.entries, tm.entry)
	d.timers = append(d.timers, tm)
}

// cancelLive cancels, the way a queue drops a pop deadline, a timer the
// reference still holds: pending, or (from a callback) later in the instant
// being fired. Caller holds s.mu.
func (d *diffRun) cancelLive() {
	from := &d.ref.pending
	if len(d.batch) > 0 && d.rng.Intn(2) == 0 {
		from = &d.batch
	}
	if len(*from) == 0 {
		return
	}
	i := d.rng.Intn(len(*from))
	id := (*from)[i].id
	if id < 0 {
		return // the driver's own Sleep
	}
	*from = slices.Delete(*from, i, i+1)
	d.s.cancelLocked(d.entries[id])
}

func (d *diffRun) checkPending() {
	if got, want := d.s.Pending(), len(d.ref.pending); got != want {
		d.failf("Pending() = %d, reference holds %d", got, want)
	}
}

// onCallback is the body of every callback timer; it runs with s.mu held.
func (d *diffRun) onCallback(id int) {
	if d.bad {
		return
	}
	d.fired++
	d.now = d.s.now
	if len(d.batch) == 0 {
		if len(d.runq) > 0 {
			d.failf("callback %d fired while process %d of the previous instant had not run", id, d.runq[0].id)
			return
		}
		d.batch = d.ref.popInstant()
	}
	// Process timers ahead of this callback fired first; their processes
	// run once the instant's callbacks are through.
	for len(d.batch) > 0 && d.batch[0].proc {
		d.runq = append(d.runq, d.batch[0])
		d.batch = d.batch[1:]
	}
	if len(d.batch) == 0 || d.batch[0].id != id || d.batch[0].at != d.now {
		d.failf("callback %d fired at %v; reference expects %+v", id, d.now, d.batch)
		return
	}
	d.batch = d.batch[1:]
	switch r := d.rng.Intn(10); {
	case r < 3:
		d.scheduleCallback(d.delay())
	case r < 6:
		d.cancelLive()
	}
}

// observeRun matches a process getting its turn (an AfterFunc body, or the
// driver returning from Sleep) against the reference. A process woken by an
// early entry of an instant starts while the rest of the instant's callbacks
// are still firing under s.mu; reading the clock first waits them out.
func (d *diffRun) observeRun(id int) {
	d.now = d.s.Elapsed()
	if d.bad {
		return
	}
	d.fired++
	if len(d.batch) == 0 && len(d.runq) == 0 {
		d.batch = d.ref.popInstant()
	}
	// A process runs only after its whole instant has fired.
	for _, e := range d.batch {
		if !e.proc {
			d.failf("process %d ran but callback %d of its instant never fired", id, e.id)
			return
		}
		d.runq = append(d.runq, e)
	}
	d.batch = nil
	if len(d.runq) == 0 || d.runq[0].id != id || d.runq[0].at != d.now {
		d.failf("process %d ran at %v; reference expects %+v", id, d.now, d.runq)
		return
	}
	d.runq = d.runq[1:]
}

// onProcess is the body of every AfterFunc timer.
func (d *diffRun) onProcess(id int) {
	d.observeRun(id)
	if d.bad {
		return
	}
	switch r := d.rng.Intn(10); {
	case r < 2:
		d.scheduleProcess(d.delay())
	case r < 4:
		d.locked(func() { d.scheduleCallback(d.delay()) })
	case r < 7:
		// Stop any handle ever issued: pending, fired, stopped, cancelled
		// behind its back, or on an entry since recycled to another timer.
		target := d.rng.Intn(len(d.timers))
		if tm := d.timers[target]; tm != nil {
			if got, want := tm.Stop(), d.ref.cancel(target); got != want {
				d.failf("Stop(timer %d) = %v, reference says %v", target, got, want)
			}
		}
	case r < 8:
		d.locked(d.cancelLive)
	}
	d.checkPending()
}

// drive is the one long-lived process: bursts of schedules, then a Sleep
// that lets the clock run to a random horizon.
func (d *diffRun) drive(steps int) {
	for step := 1; step <= steps && !d.bad; step++ {
		n := d.rng.Intn(20)
		if d.rng.Intn(8) == 0 {
			n = 2000 + d.rng.Intn(2000)
		}
		same := d.delay() // most of a burst lands on one instant
		for i := 0; i < n; i++ {
			delay := same
			if d.rng.Intn(4) == 0 {
				delay = d.delay()
			}
			if d.rng.Intn(3) == 0 {
				d.scheduleProcess(delay)
			} else {
				d.locked(func() { d.scheduleCallback(delay) })
			}
		}
		d.checkPending()
		sleep := d.delay() + 1
		d.ref.schedule(d.now+sleep, -step, true)
		d.s.Sleep(sleep)
		d.observeRun(-step)
		d.checkPending()
	}
}

// TestTimerHeapMatchesSortedSliceReference is the timer store's oracle:
// random schedule / cancel / Stop / advance programs must fire in exactly
// the order a sorted slice would, with Pending and every Stop result equal
// along the way.
func TestTimerHeapMatchesSortedSliceReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprintf("seed-%d", seed), func(t *testing.T) {
			d := &diffRun{t: t, s: NewScheduler(), rng: rand.New(rand.NewSource(seed))}
			d.s.Go(func() { d.drive(40) })
			d.s.Wait()
			if d.bad {
				return
			}
			if len(d.ref.pending)+len(d.batch)+len(d.runq) != 0 || d.s.Pending() != 0 {
				t.Fatalf("quiesced with %d reference timers pending, %d unfired, %d unrun, Pending() = %d",
					len(d.ref.pending), len(d.batch), len(d.runq), d.s.Pending())
			}
			if d.fired < 10000 {
				t.Fatalf("only %d firings checked; the program generator has gone quiet", d.fired)
			}
		})
	}
}

// TestTimerInThePastPanics pins the guard on the store's one precondition:
// an entry filed behind the clock is a scheduler bug and must not fire late.
func TestTimerInThePastPanics(t *testing.T) {
	s := NewScheduler()
	s.Go(func() { s.Sleep(time.Second) })
	s.Wait()
	s.mu.Lock()
	s.scheduleLocked(s.now-1, func() {})
	s.mu.Unlock()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("advancing onto a timer in the past did not panic")
		}
	}()
	s.Wait()
}
