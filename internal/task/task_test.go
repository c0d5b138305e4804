package task

import (
	"errors"
	"math"
	"sync"
	"testing"
	"time"

	"peerlab/internal/simnet"
)

func newHost(t *testing.T, cpu float64) (*simnet.Network, *simnet.Node) {
	t.Helper()
	n := simnet.New(3)
	p := simnet.DefaultProfile()
	p.CPUScore = cpu
	return n, n.MustAddNode("worker", p)
}

func TestExecuteScalesWithCPU(t *testing.T) {
	run := func(cpu float64) time.Duration {
		net, host := newHost(t, cpu)
		e := NewExecutor(host, cpu)
		var elapsed time.Duration
		net.Run(func() {
			done := host.NewQueue()
			if err := e.Submit(Task{ID: 1, WorkUnits: 10}, func(r Result) { done.Push(r) }); err != nil {
				t.Errorf("Submit: %v", err)
				return
			}
			v, _ := done.Pop()
			elapsed = v.(Result).Elapsed
		})
		return elapsed
	}
	fast := run(2.0)
	slow := run(0.5)
	if fast != 5*time.Second {
		t.Fatalf("cpu=2: %v, want 5s", fast)
	}
	if slow != 20*time.Second {
		t.Fatalf("cpu=0.5: %v, want 20s", slow)
	}
}

func TestFIFOOrderAndQueueing(t *testing.T) {
	net, host := newHost(t, 1)
	e := NewExecutor(host, 1)
	var order []uint64
	var mu sync.Mutex
	net.Run(func() {
		done := host.NewQueue()
		for i := 1; i <= 3; i++ {
			if err := e.Submit(Task{ID: uint64(i), WorkUnits: 1}, func(r Result) {
				mu.Lock()
				order = append(order, r.TaskID)
				mu.Unlock()
				done.Push(r)
			}); err != nil {
				t.Errorf("Submit %d: %v", i, err)
			}
		}
		for i := 0; i < 3; i++ {
			done.Pop()
		}
	})
	if len(order) != 3 || order[0] != 1 || order[1] != 2 || order[2] != 3 {
		t.Fatalf("execution order = %v", order)
	}
	// Three 1-unit tasks serialized on one worker: 3 seconds.
	if got := net.Scheduler().Elapsed(); got != 3*time.Second {
		t.Fatalf("elapsed = %v, want 3s (FIFO serialization)", got)
	}
}

func TestAdmissionControlRejectsWhenFull(t *testing.T) {
	net, host := newHost(t, 1)
	e := NewExecutor(host, 1)
	var errFull error
	net.Run(func() {
		done := host.NewQueue()
		cb := func(r Result) { done.Push(r) }
		// maxQueue fill the queue; the worker has not started any yet.
		for i := 1; i <= maxQueue; i++ {
			if err := e.Submit(Task{ID: uint64(i), WorkUnits: 5}, cb); err != nil {
				t.Errorf("submit %d of %d: %v", i, maxQueue, err)
			}
		}
		errFull = e.Submit(Task{ID: maxQueue + 1, WorkUnits: 5}, cb)
		for i := 0; i < maxQueue; i++ {
			done.Pop()
		}
	})
	if !errors.Is(errFull, ErrQueueFull) {
		t.Fatalf("submit past the bound = %v, want ErrQueueFull", errFull)
	}
}

func TestReadyInTracksBacklog(t *testing.T) {
	net, host := newHost(t, 2)
	e := NewExecutor(host, 2)
	var readyBefore, readyDuring time.Duration
	net.Run(func() {
		readyBefore = e.ReadyIn()
		done := host.NewQueue()
		e.Submit(Task{ID: 1, WorkUnits: 10}, func(r Result) { done.Push(r) })
		e.Submit(Task{ID: 2, WorkUnits: 10}, func(r Result) { done.Push(r) })
		readyDuring = e.ReadyIn()
		done.Pop()
		done.Pop()
	})
	if readyBefore != 0 {
		t.Fatalf("ReadyIn before = %v, want 0", readyBefore)
	}
	// 20 units at speed 2 = 10s of backlog.
	if readyDuring != 10*time.Second {
		t.Fatalf("ReadyIn during = %v, want 10s", readyDuring)
	}
}

// TestMalformedWorkRefused: work units that are NaN, infinite or negative
// are refused and leave the backlog, and so the ready time the peer
// reports, as it was. One accepted NaN used to leave it NaN for good.
func TestMalformedWorkRefused(t *testing.T) {
	for _, w := range []float64{math.NaN(), math.Inf(1), math.Inf(-1), -1} {
		net, host := newHost(t, 1)
		e := NewExecutor(host, 1)
		var err error
		var ready time.Duration
		net.Run(func() {
			err = e.Submit(Task{ID: 1, WorkUnits: w}, nil)
			if err := e.Submit(Task{ID: 2, WorkUnits: 100}, nil); err != nil {
				t.Errorf("Submit 100 units: %v", err)
			}
			ready = e.ReadyIn()
		})
		if !errors.Is(err, ErrBadWork) {
			t.Errorf("Submit(%v work units) = %v, want ErrBadWork", w, err)
		}
		if ready != 100*time.Second {
			t.Errorf("after a task of %v work units, ReadyIn = %v with 100 units queued at CPU 1, want 1m40s", w, ready)
		}
	}
}

func TestSubmitAfterStop(t *testing.T) {
	net, host := newHost(t, 1)
	e := NewExecutor(host, 1)
	var err error
	net.Run(func() {
		e.Stop()
		err = e.Submit(Task{ID: 1, WorkUnits: 1}, nil)
	})
	if !errors.Is(err, ErrStopped) {
		t.Fatalf("Submit after Stop = %v, want ErrStopped", err)
	}
}

func TestResultCarriesPeerName(t *testing.T) {
	net, host := newHost(t, 1)
	e := NewExecutor(host, 1)
	var peer string
	net.Run(func() {
		done := host.NewQueue()
		e.Submit(Task{ID: 7, WorkUnits: 0.5}, func(r Result) { done.Push(r) })
		v, _ := done.Pop()
		peer = v.(Result).Peer
	})
	if peer != "worker" {
		t.Fatalf("peer = %q, want worker", peer)
	}
}

func TestQueueLenIncludesRunning(t *testing.T) {
	net, host := newHost(t, 1)
	e := NewExecutor(host, 1)
	var lenDuring int
	net.Run(func() {
		done := host.NewQueue()
		e.Submit(Task{ID: 1, WorkUnits: 2}, func(r Result) { done.Push(r) })
		e.Submit(Task{ID: 2, WorkUnits: 2}, func(r Result) { done.Push(r) })
		// Let the worker pick up task 1.
		host.Sleep(time.Second)
		lenDuring = e.QueueLen()
		done.Pop()
		done.Pop()
	})
	if lenDuring != 2 {
		t.Fatalf("QueueLen mid-run = %d, want 2 (1 running + 1 queued)", lenDuring)
	}
}
