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
// callbacks in another, fresh spawns racing both — as the driver hands the
// execution slot from one coroutine to the next. The golden sequence is
// schedule (seq) order, which is the contract every experiment's
// byte-identical event stream rests on; it predates the coroutine driver
// and did not move with it.
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

// TestServedQueueHoldsNoProcess: an idle served queue parks nothing, so a
// world whose only standing service is served quiesces with no deadlock to
// report and its coroutine back in the pool. Values pushed while the handler
// is parked wait their turn in FIFO order, values buffered when the queue
// closes are still handed over, and Pop on a served queue panics.
func TestServedQueueHoldsNoProcess(t *testing.T) {
	p := NewPool()
	s := NewScheduler()
	s.SetPool(p)
	s.OnDeadlock = func(info string) { t.Errorf("OnDeadlock on a served queue: %s", info) }
	q := NewQueue(s)
	var got []string
	q.Serve(func(v any) {
		s.Sleep(time.Millisecond)
		got = append(got, fmt.Sprint(v, "@", s.Elapsed()))
	})
	s.Go(func() {
		q.Push(1)
		q.PushAt(3, s.Now().Add(time.Millisecond/2))
		q.Push(2)
	})
	s.Wait()
	s.Go(func() {
		q.Push(4)
		q.Push(5)
		q.Close()
		if err := q.Push(6); err != ErrClosed {
			t.Errorf("Push after Close = %v, want ErrClosed", err)
		}
	})
	s.Wait()
	if want := "1@1ms 2@2ms 3@3ms 4@4ms 5@5ms"; strings.Join(got, " ") != want {
		t.Fatalf("served %q, want %q", strings.Join(got, " "), want)
	}
	// The pushers never park, so each drain runs on the coroutine its pusher
	// returned.
	if spawned, _ := p.Stats(); spawned != 1 || s.Running() != 0 {
		t.Fatalf("pool created %d coroutines with %d runnable, want 1 and none", spawned, s.Running())
	}
	if got := mustPanic(t, "Pop on a served queue", func() { q.Pop() }); got != "vtime: Pop on a served queue" {
		t.Fatalf("Pop on a served queue panicked with %q", got)
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

// TestHandoffUnderConcurrentPush races a real OS thread against the
// scheduler's lock: an external producer pushes — filling park slots and
// appending to the ready ring — before and while a driver runs pooled
// processes that pop and exit. Run with -race, this covers the park slot's
// publication from a foreign goroutine through the driver to the coroutine,
// and a served queue's drain admitted by that goroutine's pushes.
func TestHandoffUnderConcurrentPush(t *testing.T) {
	s := NewScheduler()
	q, served := NewQueue(s), NewQueue(s)
	servedSum := 0
	served.Serve(func(v any) { servedSum += v.(int) })
	const n = 500
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < n; i++ {
			q.Push(i)
			served.Push(i)
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
	s.Wait() // drives while the producer may still be pushing
	wg.Wait()
	s.Wait() // whatever the producer pushed after the first driver quiesced
	if want := n * (n - 1) / 2; sum != want || servedSum != want {
		t.Fatalf("sum of popped values = %d, of served values %d, want %d", sum, servedSum, want)
	}
}

// mustPanic runs fn and returns the value it panicked with, failing the
// test if it returned normally.
func mustPanic(t *testing.T, what string, fn func()) (r any) {
	t.Helper()
	defer func() {
		if r = recover(); r == nil {
			t.Fatalf("%s did not panic", what)
		}
	}()
	fn()
	return nil
}

// TestBlockingOutsideProcessPanics: a goroutine that is not a scheduler
// process has no driver to yield to, so parking it could only hang. Each
// blocking primitive must panic instead, release the lock on the way out,
// and leave the scheduler usable.
func TestBlockingOutsideProcessPanics(t *testing.T) {
	const want = "vtime: blocking primitive called from outside a scheduler process"
	s := NewScheduler()
	q := NewQueue(s)
	for what, fn := range map[string]func(){
		"Sleep": func() { s.Sleep(time.Second) },
		"Pop":   func() { q.Pop() },
	} {
		if got := mustPanic(t, what+" from the test goroutine", fn); got != want {
			t.Errorf("%s panicked with %q, want %q", what, got, want)
		}
	}
	// Not parking is fine from anywhere: a buffered value pops at once.
	q.Push(7)
	if v, err := q.Pop(); v != 7 || err != nil {
		t.Fatalf("Pop of a buffered value from outside = %v, %v", v, err)
	}
	ran := false
	s.Go(func() { s.Sleep(time.Second); ran = true })
	s.Wait()
	if !ran || s.Pending() != 0 || s.Elapsed() != time.Second {
		t.Fatalf("scheduler unusable after the panics: ran=%v pending=%d elapsed=%v", ran, s.Pending(), s.Elapsed())
	}
}

// TestWaitInsideProcessPanics: the driver is blocked inside resume while a
// process runs, so a process that waits for quiescence waits for itself. The
// panic crosses the coroutine boundary and surfaces in the driving Wait.
func TestWaitInsideProcessPanics(t *testing.T) {
	s := NewScheduler()
	s.SetPool(NewPool()) // the panicking coroutine is lost to its pool
	s.Go(func() { s.Wait() })
	// The value a process panics with reaches the driver with the process's
	// own stack attached, the offending call on it.
	got := fmt.Sprint(mustPanic(t, "Wait from inside a process", s.Wait))
	if want := "vtime: Wait called from inside a scheduler process\n"; !strings.HasPrefix(got, want) {
		t.Fatalf("panicked with %q, want prefix %q", got, want)
	}
	if !strings.Contains(got, "TestWaitInsideProcessPanics") {
		t.Fatalf("panic lost the process's stack: %q", got)
	}
	if s.Running() != 0 {
		t.Fatalf("Running = %d after the process died, want 0", s.Running())
	}
	s.Wait() // the failed driver stepped down; a new one may drive
}

// TestSecondWaitBlocksUntilDriverQuiesces: with one goroutine driving, a
// second Wait caller is not a process calling Wait — it must neither panic
// nor drive, and it returns only once the world has quiesced.
func TestSecondWaitBlocksUntilDriverQuiesces(t *testing.T) {
	s := NewScheduler()
	started, gate := make(chan struct{}), make(chan struct{})
	finished := false
	s.Go(func() {
		close(started)
		<-gate // holds the first driver inside this process, in real time
		s.Sleep(time.Hour)
		finished = true
	})
	first, second := make(chan struct{}), make(chan bool)
	go func() { s.Wait(); close(first) }()
	<-started
	go func() { s.Wait(); second <- finished }()
	select {
	case <-second:
		t.Fatal("second Wait returned while the first was still driving")
	case <-time.After(50 * time.Millisecond):
	}
	close(gate)
	<-first
	if sawFinished := <-second; !sawFinished {
		t.Fatal("second Wait returned before the world quiesced")
	}
}
