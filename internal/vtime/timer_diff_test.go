package vtime

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"
)

// refTimer is one timer of the reference store. Its firing is observed when
// the process it spawns (AfterFunc) or wakes (Sleep) gets its turn.
type refTimer struct {
	at  time.Duration
	seq int
	id  int
}

// refTimers is the oracle the scheduler's heap is checked against: a slice
// kept sorted by (at, seq), with linear-time everything.
type refTimers struct {
	pending []refTimer
	seq     int
}

func (r *refTimers) schedule(at time.Duration, id int) {
	r.seq++
	// seq only grows, so behind every entry at or before `at` is sorted.
	i := sort.Search(len(r.pending), func(i int) bool { return r.pending[i].at > at })
	r.pending = slices.Insert(r.pending, i, refTimer{at, r.seq, id})
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

// diffRun drives one scheduler and the reference in lock step. Every process
// a timer starts is matched against the reference's next firing, and every
// process then draws more schedule / cancel / Stop / Reset actions from the
// shared rng and applies them to both. Execution is serialized by the
// scheduler itself (one process at a time), so the harness state needs no
// lock of its own.
type diffRun struct {
	t   *testing.T
	s   *Scheduler
	rng *rand.Rand
	ref refTimers
	now time.Duration // virtual time at the latest observation

	runq []refTimer // fired timers whose process has not run yet

	timers []*Timer // by id
	fired  int
	bad    bool
}

func (d *diffRun) failf(format string, args ...any) {
	if !d.bad {
		d.bad = true
		d.t.Errorf("after %d firings at %v: %s", d.fired, d.now, fmt.Sprintf(format, args...))
	}
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

// scheduleProcess adds an AfterFunc timer.
func (d *diffRun) scheduleProcess(delay time.Duration) {
	id := len(d.timers)
	d.ref.schedule(d.now+delay, id)
	d.timers = append(d.timers, d.s.AfterFunc(delay, func() { d.onProcess(id) }))
}

// stopLive stops a timer the reference still holds pending, the way a pipe
// conn drops its deadline or a record's retransmission.
func (d *diffRun) stopLive() {
	if len(d.ref.pending) == 0 {
		return
	}
	i := d.rng.Intn(len(d.ref.pending))
	id := d.ref.pending[i].id
	if id < 0 {
		return // the driver's own Sleep
	}
	d.ref.pending = slices.Delete(d.ref.pending, i, i+1)
	if !d.timers[id].Stop() {
		d.failf("Stop(live timer %d) = false", id)
	}
}

func (d *diffRun) checkPending() {
	if got, want := d.s.Pending(), len(d.ref.pending); got != want {
		d.failf("Pending() = %d, reference holds %d", got, want)
	}
}

// observeRun matches a process getting its turn (an AfterFunc body, or the
// driver returning from Sleep) against the reference: every timer of an
// instant fires before any of their processes runs, and they run in firing
// order.
func (d *diffRun) observeRun(id int) {
	d.now = d.s.Elapsed()
	if d.bad {
		return
	}
	d.fired++
	if len(d.runq) == 0 {
		d.runq = d.ref.popInstant()
	}
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
	case r < 3:
		d.scheduleProcess(d.delay())
	case r < 6:
		// Stop any handle ever issued: pending, fired, stopped, or on an
		// entry since recycled to another timer.
		target := d.rng.Intn(len(d.timers))
		if got, want := d.timers[target].Stop(), d.ref.cancel(target); got != want {
			d.failf("Stop(timer %d) = %v, reference says %v", target, got, want)
		}
	case r < 8:
		// Re-arm any handle ever issued, whatever became of it.
		target, delay := d.rng.Intn(len(d.timers)), d.delay()
		want := d.ref.cancel(target)
		d.ref.schedule(d.now+delay, target)
		tm := d.timers[target]
		if got := tm.Reset(delay); got != want {
			d.failf("Reset(timer %d) = %v, reference says %v", target, got, want)
		}
	case r < 9:
		d.stopLive()
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
			d.scheduleProcess(delay)
		}
		d.checkPending()
		sleep := d.delay() + 1
		d.ref.schedule(d.now+sleep, -step)
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
			if len(d.ref.pending)+len(d.runq) != 0 || d.s.Pending() != 0 {
				t.Fatalf("quiesced with %d reference timers pending, %d unrun, Pending() = %d",
					len(d.ref.pending), len(d.runq), d.s.Pending())
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
	s.scheduleLocked(s.now - 1).spawn = func() {}
	s.mu.Unlock()
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("advancing onto a timer in the past did not panic")
		}
	}()
	s.Wait()
}
