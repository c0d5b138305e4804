package vtime

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestSameInstantWakeOrderGoldenThroughHandoff pins the exact dispatch order
// of a mixed same-instant batch — sleepers scheduled in one order, AfterFunc
// callbacks in another, fresh spawns racing both — through the direct-handoff
// path. The golden sequence is schedule (seq) order, which is the contract
// every experiment's byte-identical event stream rests on.
func TestSameInstantWakeOrderGoldenThroughHandoff(t *testing.T) {
	s := NewScheduler()
	var order []string
	add := func(name string) { order = append(order, name) }
	s.Go(func() {
		// Timers for instant t=10ms, scheduled in this order:
		s.AfterFunc(10*time.Millisecond, func() { add("af-1") }) // seq 1
		s.Go(func() { s.Sleep(10 * time.Millisecond); add("sleep-2") })
		s.AfterFunc(10*time.Millisecond, func() { add("af-3") })
		s.Go(func() { s.Sleep(10 * time.Millisecond); add("sleep-4") })
		// A later instant scheduled earlier must still fire after all of
		// the above.
		s.AfterFunc(20*time.Millisecond, func() { add("late") })
		s.Go(func() { s.Sleep(10 * time.Millisecond); add("sleep-5") })
	})
	s.Wait()
	// The two spawned sleepers register their 10ms timers only when their
	// own turn comes, but spawn order is dispatch order, so their seq order
	// matches spawn order and interleaves after the parent's AfterFuncs.
	want := "af-1 af-3 sleep-2 sleep-4 sleep-5 late"
	if got := strings.Join(order, " "); got != want {
		t.Fatalf("same-instant dispatch order = %q, want %q", got, want)
	}
}

// TestOnDeadlockFiresWhenAllWorkersParked parks every process on queues with
// no pending timer and checks the hook fires exactly once, with a message
// naming the parked count, and that Wait still returns (parked processes are
// daemons).
func TestOnDeadlockFiresWhenAllWorkersParked(t *testing.T) {
	s := NewScheduler()
	var calls []string
	s.OnDeadlock = func(info string) { calls = append(calls, info) }
	q := NewQueue(s)
	for i := 0; i < 3; i++ {
		s.Go(func() { q.Pop() })
	}
	s.Wait()
	if len(calls) != 1 {
		t.Fatalf("OnDeadlock fired %d times, want 1 (calls: %v)", len(calls), calls)
	}
	if !strings.Contains(calls[0], "3 process(es) parked") {
		t.Fatalf("OnDeadlock info = %q, want it to name 3 parked processes", calls[0])
	}
}

// TestOnDeadlockLatchResetsAfterWake checks the once-per-quiescence latch:
// waking a parked process from outside (a driver pushing between Wait calls)
// re-arms the hook, so a second quiescence reports again.
func TestOnDeadlockLatchResetsAfterWake(t *testing.T) {
	s := NewScheduler()
	fired := 0
	s.OnDeadlock = func(info string) { fired++ }
	q := NewQueue(s)
	s.Go(func() {
		for {
			if _, err := q.Pop(); err != nil {
				return
			}
		}
	})
	s.Wait()
	if fired != 1 {
		t.Fatalf("after first Wait: OnDeadlock fired %d times, want 1", fired)
	}
	q.Push(1) // wake the daemon; it pops and parks again
	s.Wait()
	if fired != 2 {
		t.Fatalf("after wake and second Wait: OnDeadlock fired %d times, want 2", fired)
	}
}

// TestOnDeadlockNilKeepsDaemonSemantics is the regression guard for the
// default: with no hook set, parked queue waiters are silently treated as
// daemons and Wait returns.
func TestOnDeadlockNilKeepsDaemonSemantics(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	s.Go(func() { q.Pop() })
	done := make(chan struct{})
	go func() { s.Wait(); close(done) }()
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("Wait did not return with a parked daemon and nil OnDeadlock")
	}
}

// TestPoolReusesWorkers runs many short-lived processes sequentially on a
// private pool and checks the pool recycles parked workers instead of
// spawning one goroutine per process.
func TestPoolReusesWorkers(t *testing.T) {
	p := NewPool()
	s := NewScheduler()
	s.SetPool(p)
	const procs = 100
	s.Go(func() {
		for i := 0; i < procs; i++ {
			s.Go(func() { s.Sleep(time.Millisecond) })
			s.Sleep(2 * time.Millisecond) // let it finish before the next
		}
	})
	s.Wait()
	spawned, reused := p.Stats()
	if spawned+reused < procs {
		t.Fatalf("pool dispatched %d jobs (spawned=%d reused=%d), want >= %d",
			spawned+reused, spawned, reused, procs)
	}
	if reused == 0 {
		t.Fatalf("pool never reused a worker across %d sequential processes (spawned=%d)", procs, spawned)
	}
	if spawned > 8 {
		t.Fatalf("pool spawned %d fresh workers for sequential processes, want a handful (reused=%d)", spawned, reused)
	}
}

// TestPoolSharedAcrossSchedulers runs two schedulers back to back on one
// pool: the second run should draw warm workers parked by the first, and the
// event streams of both runs must be unaffected by sharing.
func TestPoolSharedAcrossSchedulers(t *testing.T) {
	p := NewPool()
	run := func() []string {
		s := NewScheduler()
		s.SetPool(p)
		var order []string
		for i := 0; i < 10; i++ {
			i := i
			s.Go(func() {
				s.Sleep(time.Duration(10-i) * time.Millisecond)
				order = append(order, fmt.Sprintf("p%d", i))
			})
		}
		s.Wait()
		return order
	}
	first := run()
	spawnedAfterFirst, _ := p.Stats()
	second := run()
	spawnedAfterSecond, reused := p.Stats()
	if strings.Join(first, " ") != strings.Join(second, " ") {
		t.Fatalf("event order changed across pool-sharing runs: %v vs %v", first, second)
	}
	if reused == 0 {
		t.Fatalf("second run reused no workers (spawned %d then %d)", spawnedAfterFirst, spawnedAfterSecond)
	}
}

// TestHandoffUnderConcurrentPush hammers the grant handoff from a real OS
// thread racing the scheduler: an external producer pushes while pooled
// processes pop and exit. Run with -race, this covers the pool's channel
// handoff and the waiter's v-field publication.
func TestHandoffUnderConcurrentPush(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Push(i)
		}
	}()
	sum := 0
	s.Go(func() {
		for i := 0; i < n; i++ {
			v, err := q.Pop()
			if err != nil {
				t.Errorf("pop %d: %v", i, err)
				return
			}
			sum += v.(int)
			// Spawn a short-lived sibling each iteration so worker exits
			// and pool reuse interleave with the external pushes.
			s.Go(func() { s.Sleep(time.Microsecond) })
		}
	})
	wg.Wait()
	s.Wait()
	if want := n * (n - 1) / 2; sum != want {
		t.Fatalf("sum of popped values = %d, want %d", sum, want)
	}
}
