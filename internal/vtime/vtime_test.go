package vtime

import (
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestNowStartsAtEpoch(t *testing.T) {
	s := NewScheduler()
	if got := s.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	s := NewScheduler()
	var at time.Time
	s.Go(func() {
		s.Sleep(5 * time.Second)
		at = s.Now()
	})
	s.Wait()
	if want := Epoch.Add(5 * time.Second); !at.Equal(want) {
		t.Fatalf("after sleep Now() = %v, want %v", at, want)
	}
}

func TestSleepZeroAndNegative(t *testing.T) {
	s := NewScheduler()
	done := false
	s.Go(func() {
		s.Sleep(0)
		s.Sleep(-time.Second)
		done = true
	})
	s.Wait()
	if !done {
		t.Fatal("process did not finish")
	}
	if s.Elapsed() != 0 {
		t.Fatalf("Elapsed = %v, want 0", s.Elapsed())
	}
}

func TestTwoSleepersWakeInOrder(t *testing.T) {
	s := NewScheduler()
	var order []string
	var mu sync.Mutex
	add := func(name string) {
		mu.Lock()
		order = append(order, name)
		mu.Unlock()
	}
	s.Go(func() { s.Sleep(2 * time.Second); add("late") })
	s.Go(func() { s.Sleep(1 * time.Second); add("early") })
	s.Wait()
	if len(order) != 2 || order[0] != "early" || order[1] != "late" {
		t.Fatalf("wake order = %v, want [early late]", order)
	}
}

func TestParallelSleepsTakeMaxNotSum(t *testing.T) {
	s := NewScheduler()
	for i := 0; i < 10; i++ {
		s.Go(func() { s.Sleep(7 * time.Second) })
	}
	s.Wait()
	if got := s.Elapsed(); got != 7*time.Second {
		t.Fatalf("Elapsed = %v, want 7s (parallel sleeps must overlap)", got)
	}
}

func TestSequentialSleepsAccumulate(t *testing.T) {
	s := NewScheduler()
	s.Go(func() {
		for i := 0; i < 5; i++ {
			s.Sleep(time.Second)
		}
	})
	s.Wait()
	if got := s.Elapsed(); got != 5*time.Second {
		t.Fatalf("Elapsed = %v, want 5s", got)
	}
}

func TestAfterFuncFires(t *testing.T) {
	s := NewScheduler()
	var fired atomic.Bool
	var at time.Duration
	s.AfterFunc(3*time.Second, func() {
		fired.Store(true)
		at = s.Elapsed()
	})
	s.Wait()
	if !fired.Load() {
		t.Fatal("AfterFunc did not fire")
	}
	if at != 3*time.Second {
		t.Fatalf("fired at %v, want 3s", at)
	}
}

func TestAfterFuncStop(t *testing.T) {
	s := NewScheduler()
	var fired atomic.Bool
	tm := s.AfterFunc(3*time.Second, func() { fired.Store(true) })
	if !tm.Stop() {
		t.Fatal("Stop() = false on pending timer")
	}
	if tm.Stop() {
		t.Fatal("second Stop() = true, want false")
	}
	s.Wait()
	if fired.Load() {
		t.Fatal("stopped timer fired")
	}
}

func TestAfterFuncCanSleep(t *testing.T) {
	s := NewScheduler()
	var total time.Duration
	s.AfterFunc(time.Second, func() {
		s.Sleep(2 * time.Second)
		total = s.Elapsed()
	})
	s.Wait()
	if total != 3*time.Second {
		t.Fatalf("callback finished at %v, want 3s", total)
	}
}

func TestSameInstantTimersFireInScheduleOrder(t *testing.T) {
	s := NewScheduler()
	var order []int
	var mu sync.Mutex
	for i := 0; i < 8; i++ {
		i := i
		s.AfterFunc(time.Second, func() {
			mu.Lock()
			order = append(order, i)
			mu.Unlock()
		})
	}
	s.Wait()
	if len(order) != 8 {
		t.Fatalf("fired %d timers, want 8", len(order))
	}
	// AfterFunc spawns goroutines, so completion order is not guaranteed,
	// but all must have fired at the same virtual instant.
	if s.Elapsed() != time.Second {
		t.Fatalf("Elapsed = %v, want 1s", s.Elapsed())
	}
}

func TestCallbackFiringOrderIsScheduleOrder(t *testing.T) {
	// The heap pops in (at, seq) order, which must be exactly the firing
	// order: entries at an earlier instant first, ties broken by schedule
	// order. A fired timer's process joins the ready ring as it fires, and
	// the ring runs in order, so the recorded order is the firing order.
	s := NewScheduler()
	var order []string
	schedule := func(name string, at time.Duration) {
		s.AfterFunc(at, func() { order = append(order, name) })
	}
	// Interleave instants so heap order differs from insertion order.
	schedule("b1", 5*time.Millisecond)
	schedule("b2", 5*time.Millisecond)
	schedule("a1", 3*time.Millisecond)
	schedule("b3", 5*time.Millisecond)
	schedule("a2", 3*time.Millisecond)
	s.Wait()
	want := []string{"a1", "a2", "b1", "b2", "b3"}
	if len(order) != len(want) {
		t.Fatalf("fired %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("fired %v, want %v", order, want)
		}
	}
}

func TestStopRemovesTimerFromHeapEagerly(t *testing.T) {
	s := NewScheduler()
	tm1 := s.AfterFunc(time.Hour, func() {})
	tm2 := s.AfterFunc(2*time.Hour, func() {})
	if s.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", s.Pending())
	}
	// Stop a timer that is NOT at the heap head: it must leave the heap
	// immediately, not linger until it would reach the front.
	if !tm2.Stop() {
		t.Fatal("Stop returned false on a pending timer")
	}
	s.mu.Lock()
	heapLen := len(s.timers)
	s.mu.Unlock()
	if heapLen != 1 {
		t.Fatalf("heap holds %d entries after Stop, want 1 (eager removal)", heapLen)
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	if !tm1.Stop() {
		t.Fatal("Stop on first timer returned false")
	}
	if s.Pending() != 0 {
		t.Fatalf("Pending = %d, want 0", s.Pending())
	}
	s.Wait()
	if s.Elapsed() != 0 {
		t.Fatalf("Elapsed = %v, want 0 (stopped timers must not drive the clock)", s.Elapsed())
	}
}

func TestQueuePushPop(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	var got any
	s.Go(func() {
		v, err := q.Pop()
		if err != nil {
			t.Errorf("Pop: %v", err)
		}
		got = v
	})
	s.Go(func() {
		s.Sleep(time.Second)
		if err := q.Push("hello"); err != nil {
			t.Errorf("Push: %v", err)
		}
	})
	s.Wait()
	if got != "hello" {
		t.Fatalf("Pop = %v, want hello", got)
	}
	if s.Elapsed() != time.Second {
		t.Fatalf("Elapsed = %v, want 1s (Pop must not stall the clock)", s.Elapsed())
	}
}

func TestQueueFIFO(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	var got []int
	s.Go(func() {
		for i := 0; i < 5; i++ {
			q.Push(i)
		}
		for i := 0; i < 5; i++ {
			v, err := q.Pop()
			if err != nil {
				t.Errorf("Pop: %v", err)
				return
			}
			got = append(got, v.(int))
		}
	})
	s.Wait()
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d, want %d (FIFO order)", i, v, i)
		}
	}
}

func TestQueueCloseWakesWaiters(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	errs := make([]error, 3)
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		i := i
		wg.Add(1)
		s.Go(func() {
			defer wg.Done()
			_, errs[i] = q.Pop()
		})
	}
	s.Go(func() {
		s.Sleep(time.Second)
		q.Close()
	})
	s.Wait()
	wg.Wait()
	for i, err := range errs {
		if err != ErrClosed {
			t.Fatalf("waiter %d err = %v, want ErrClosed", i, err)
		}
	}
}

func TestQueueCloseDrainsBuffered(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	var vals []any
	var finalErr error
	s.Go(func() {
		q.Push(1)
		q.Push(2)
		q.Close()
		for {
			v, err := q.Pop()
			if err != nil {
				finalErr = err
				return
			}
			vals = append(vals, v)
		}
	})
	s.Wait()
	if len(vals) != 2 || vals[0] != 1 || vals[1] != 2 {
		t.Fatalf("drained %v, want [1 2]", vals)
	}
	if finalErr != ErrClosed {
		t.Fatalf("final err = %v, want ErrClosed", finalErr)
	}
}

func TestPushToClosedQueue(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	var err error
	s.Go(func() {
		q.Close()
		err = q.Push(1)
	})
	s.Wait()
	if err != ErrClosed {
		t.Fatalf("Push after Close = %v, want ErrClosed", err)
	}
}

func TestQueueMultipleWaitersFIFOWakeup(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	got := make([]int, 2)
	var wg sync.WaitGroup
	ready := NewQueue(s)
	for i := 0; i < 2; i++ {
		i := i
		wg.Add(1)
		s.Go(func() {
			defer wg.Done()
			ready.Push(i) // establish arrival order deterministically
			v, _ := q.Pop()
			got[i] = v.(int)
		})
		// Wait for waiter i to be parked before starting the next, so the
		// wait-list order is deterministic.
		s.Go(func() {})
	}
	s.Go(func() {
		s.Sleep(time.Second)
		q.Push(100)
		q.Push(200)
	})
	s.Wait()
	wg.Wait()
	if got[0]+got[1] != 300 {
		t.Fatalf("waiters got %v, want {100,200} in some order", got)
	}
}

func TestWaitReturnsImmediatelyWhenIdle(t *testing.T) {
	s := NewScheduler()
	done := make(chan struct{})
	go func() {
		s.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(2 * time.Second):
		t.Fatal("Wait on an idle scheduler did not return")
	}
}

func TestNestedGo(t *testing.T) {
	s := NewScheduler()
	var count atomic.Int32
	s.Go(func() {
		for i := 0; i < 4; i++ {
			s.Go(func() {
				s.Sleep(time.Second)
				count.Add(1)
			})
		}
	})
	s.Wait()
	if count.Load() != 4 {
		t.Fatalf("nested processes ran %d times, want 4", count.Load())
	}
}

func TestPendingAndRunningCounters(t *testing.T) {
	s := NewScheduler()
	tm := s.AfterFunc(time.Hour, func() {})
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	tm.Stop()
	if s.Pending() != 0 {
		t.Fatalf("Pending after Stop = %d, want 0", s.Pending())
	}
	s.Wait()
	if s.Running() != 0 {
		t.Fatalf("Running after Wait = %d, want 0", s.Running())
	}
}

func TestLongVirtualDurationIsCheap(t *testing.T) {
	s := NewScheduler()
	start := time.Now()
	s.Go(func() { s.Sleep(365 * 24 * time.Hour) })
	s.Wait()
	if wall := time.Since(start); wall > 2*time.Second {
		t.Fatalf("simulating a year took %v of wall time", wall)
	}
	if s.Elapsed() != 365*24*time.Hour {
		t.Fatalf("Elapsed = %v, want 1y", s.Elapsed())
	}
}

func TestDeterministicInterleaving(t *testing.T) {
	// Two processes exchanging messages through queues must produce the same
	// virtual-time trace on every run.
	run := func() []time.Duration {
		s := NewScheduler()
		a2b := NewQueue(s)
		b2a := NewQueue(s)
		var trace []time.Duration
		var mu sync.Mutex
		record := func() {
			mu.Lock()
			trace = append(trace, s.Elapsed())
			mu.Unlock()
		}
		s.Go(func() { // A
			for i := 0; i < 5; i++ {
				s.Sleep(100 * time.Millisecond)
				a2b.Push(i)
				if _, err := b2a.Pop(); err != nil {
					return
				}
				record()
			}
		})
		s.Go(func() { // B
			for i := 0; i < 5; i++ {
				if _, err := a2b.Pop(); err != nil {
					return
				}
				s.Sleep(50 * time.Millisecond)
				b2a.Push(i)
			}
		})
		s.Wait()
		return trace
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); len(got) != len(first) {
			t.Fatalf("run %d trace length %d != %d", i, len(got), len(first))
		} else {
			for j := range got {
				if got[j] != first[j] {
					t.Fatalf("run %d trace[%d] = %v, want %v", i, j, got[j], first[j])
				}
			}
		}
	}
}

func TestPushAtInPastClampsToNow(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	var got any
	s.Go(func() {
		s.Sleep(10 * time.Second)
		// Deliver "in the past": must clamp to now, not panic.
		q.PushAt("late", Epoch.Add(time.Second))
		got, _ = q.Pop()
	})
	s.Wait()
	if got != "late" {
		t.Fatalf("got %v", got)
	}
	if s.Elapsed() != 10*time.Second {
		t.Fatalf("Elapsed = %v", s.Elapsed())
	}
}

func TestTimerStopAfterFire(t *testing.T) {
	s := NewScheduler()
	tm := s.AfterFunc(time.Second, func() {})
	s.Wait()
	if tm.Stop() {
		t.Fatal("Stop after fire returned true")
	}
}

func TestQueueLen(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	s.Go(func() {
		q.Push(1)
		q.Push(2)
	})
	s.Wait()
	if q.Len() != 2 {
		t.Fatalf("Len = %d", q.Len())
	}
}

func TestDoubleCloseQueueIsSafe(t *testing.T) {
	s := NewScheduler()
	q := NewQueue(s)
	q.Close()
	q.Close() // must not panic or deadlock
	if err := q.Push(1); err != ErrClosed {
		t.Fatalf("Push = %v", err)
	}
}

// TestSerializedDeterministicDispatch pins the scheduler's execution model:
// at most one process runs at a time, and processes woken at the same
// virtual instant run in wake (timer schedule) order, not in whatever order
// the Go runtime schedules their goroutines. Concurrent-workload
// reproducibility rests on this.
func TestSerializedDeterministicDispatch(t *testing.T) {
	run := func() []int {
		s := NewScheduler()
		var order []int
		var active, maxActive int
		var mu sync.Mutex
		// enter/leave bracket non-parking execution regions: with serialized
		// dispatch they can never overlap.
		enter := func() {
			mu.Lock()
			active++
			if active > maxActive {
				maxActive = active
			}
			mu.Unlock()
		}
		leave := func() {
			mu.Lock()
			active--
			mu.Unlock()
		}
		s.Go(func() {
			for i := 0; i < 8; i++ {
				i := i
				s.Go(func() {
					enter()
					leave()
					// All eight wake at the same instant.
					s.Sleep(time.Second)
					enter()
					order = append(order, i)
					leave()
				})
			}
		})
		s.Wait()
		if maxActive != 1 {
			t.Fatalf("processes overlapped: max %d active", maxActive)
		}
		return order
	}
	first := run()
	if len(first) != 8 {
		t.Fatalf("order = %v", first)
	}
	for i, v := range first {
		if v != i {
			t.Fatalf("same-instant wake order %v, want spawn order", first)
		}
	}
	for n := 0; n < 3; n++ {
		if got := run(); !reflect.DeepEqual(got, first) {
			t.Fatalf("dispatch order diverged across runs: %v vs %v", got, first)
		}
	}
}

// TestSpawnedProcessRunsAfterSpawnerParks pins the gate's spawn semantics:
// Go from inside a process defers the child until the parent parks.
func TestSpawnedProcessRunsAfterSpawnerParks(t *testing.T) {
	s := NewScheduler()
	var trace []string
	s.Go(func() {
		s.Go(func() { trace = append(trace, "child") })
		trace = append(trace, "parent")
		s.Sleep(time.Millisecond)
		trace = append(trace, "parent-after-sleep")
	})
	s.Wait()
	want := []string{"parent", "child", "parent-after-sleep"}
	if !reflect.DeepEqual(trace, want) {
		t.Fatalf("trace = %v, want %v", trace, want)
	}
}
