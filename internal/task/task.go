// Package task implements the overlay's executable-task management: the
// primitives the paper's platform offers to "users/applications on top of
// the overlay that submit executable tasks and receive results in turn".
//
// Execution is modeled, not real: a task declares work units (seconds on a
// reference machine) and the executor charges units/CPUScore of (virtual)
// time. Figure 7 only needs execution time to scale with per-node compute
// capacity and queueing.
package task

import (
	"errors"
	"math"
	"sync"
	"time"

	"peerlab/internal/transport"
)

// Task is one executable work item.
type Task struct {
	ID   uint64
	Name string
	// WorkUnits is the compute demand in reference-machine seconds.
	WorkUnits float64
	// InputSize is the size of the task's input file in bytes (informational;
	// transfers happen through the transfer package).
	InputSize int
}

// Result reports one finished task.
type Result struct {
	TaskID  uint64
	OK      bool
	Detail  string
	Elapsed time.Duration
	Peer    string
}

// ErrQueueFull is returned when a task is rejected by admission control.
var ErrQueueFull = errors.New("task: executor queue full")

// ErrStopped is returned after the executor shuts down.
var ErrStopped = errors.New("task: executor stopped")

// ErrBadWork is returned for work units that are NaN, infinite or negative,
// which would leave the backlog and every later ready time meaningless.
var ErrBadWork = errors.New("task: work units must be finite and non-negative")

// maxQueue bounds accepted-but-not-started tasks: admission control
// rejects a submission while this many wait.
const maxQueue = 16

type submission struct {
	t    Task
	done func(Result)
}

// Executor runs tasks one at a time on a host, FIFO.
type Executor struct {
	host     transport.Host
	cpuScore float64 // the node's relative speed (reference = 1.0)

	mu      sync.Mutex
	queued  int
	busy    bool
	backlog float64 // queued + running work units
	stopped bool

	queue transport.Queue
}

// NewExecutor returns an executor running at cpuScore times the reference
// speed (1 when cpuScore is not positive), serving its queue.
func NewExecutor(host transport.Host, cpuScore float64) *Executor {
	if cpuScore <= 0 {
		cpuScore = 1.0
	}
	e := &Executor{host: host, cpuScore: cpuScore, queue: host.NewQueue()}
	e.queue.Serve(func(v any) { e.run(v.(submission)) })
	return e
}

// Submit offers a task, whose result goes to done (which must not block).
// Bad work units are refused, and so is a task that finds the queue full.
func (e *Executor) Submit(t Task, done func(Result)) error {
	if math.IsNaN(t.WorkUnits) || math.IsInf(t.WorkUnits, 0) || t.WorkUnits < 0 {
		return ErrBadWork
	}
	e.mu.Lock()
	if e.stopped {
		e.mu.Unlock()
		return ErrStopped
	}
	if e.queued >= maxQueue {
		e.mu.Unlock()
		return ErrQueueFull
	}
	e.queued++
	e.backlog += t.WorkUnits
	e.mu.Unlock()
	if err := e.queue.Push(submission{t, done}); err != nil {
		return ErrStopped
	}
	return nil
}

// run executes one task; the served queue hands over one at a time.
func (e *Executor) run(sub submission) {
	e.mu.Lock()
	e.queued--
	e.busy = true
	e.mu.Unlock()

	start := e.host.Now()
	dur := time.Duration(sub.t.WorkUnits / e.cpuScore * float64(time.Second))
	e.host.Sleep(dur)

	e.mu.Lock()
	e.busy = false
	e.backlog = max(e.backlog-sub.t.WorkUnits, 0)
	e.mu.Unlock()

	res := Result{
		TaskID:  sub.t.ID,
		OK:      true,
		Elapsed: e.host.Now().Sub(start),
		Peer:    e.host.Name(),
	}
	if sub.done != nil {
		sub.done(res)
	}
}

// QueueLen reports tasks accepted but not yet finished (including running).
func (e *Executor) QueueLen() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	n := e.queued
	if e.busy {
		n++
	}
	return n
}

// ReadyIn estimates how long until the executor drains its backlog — the
// "ready time" the scheduling-based selection model plans with.
func (e *Executor) ReadyIn() time.Duration {
	e.mu.Lock()
	defer e.mu.Unlock()
	return time.Duration(e.backlog / e.cpuScore * float64(time.Second))
}

// Stop shuts the executor down; queued tasks are dropped.
func (e *Executor) Stop() {
	e.mu.Lock()
	e.stopped = true
	e.mu.Unlock()
	e.queue.Close()
}
