package vtime

import (
	"fmt"
	"iter"
	"runtime/debug"
	"sync"
)

// Pool is a reservoir of the coroutines scheduler processes execute on,
// keeping finished processes' coroutines on an idle list, most recently
// finished first. A spawned process holds none until its first turn
// arrives, and reuse is invisible to the simulation, so one pool may serve
// every scheduler in the program (DESIGN.md "Pooled coroutines,
// invisibly"). Pool is safe for concurrent use; a coroutine returns to the
// idle list only when its process returns.
type Pool struct {
	mu      sync.Mutex
	idle    *pworker // LIFO free list
	spawned int64    // workers ever created
	reused  int64    // processes served by an idle worker
}

// NewPool returns an empty pool. Workers are created on demand and never
// expire; a pool's high-water mark is the peak number of simultaneously
// live processes it ever served.
func NewPool() *Pool { return &Pool{} }

var sharedPool = NewPool()

// SharedPool returns the process-wide pool every NewScheduler attaches to.
// Sharing it is what lets consecutive sweep cells reuse each other's worker
// stacks.
func SharedPool() *Pool { return sharedPool }

// Stats reports how many workers the pool ever created and how many
// processes were served by reusing an idle one. Useful in tests asserting
// that recycling actually happens.
func (p *Pool) Stats() (spawned, reused int64) {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.spawned, p.reused
}

// pworker is one pooled coroutine and, while a process runs on it, that
// process's identity to the scheduler. A process is parked in at most one
// place at a time, so the state of that park lives here rather than in a
// waiter allocated per Pop.
type pworker struct {
	next   *pworker                // idle list link
	resume func() (struct{}, bool) // driver side: run until the next yield
	yield  func(struct{}) bool     // coroutine side: switch back to the driver
	fn     func()                  // the process, handed over by the driver; nil once it returned
	q      *Queue                  // or the served queue whose drain is the process; nil likewise

	// Park slot. A waker stores the result of a Pop in v before making the
	// process runnable; it is guarded by the parking scheduler's lock until
	// the process resumes.
	v any
}

// get takes an idle worker, creating one if none is parked. The pool mutex
// is a leaf lock, so get is safe to call with a scheduler's mutex held.
func (p *Pool) get() *pworker {
	p.mu.Lock()
	if w := p.idle; w != nil {
		p.idle = w.next
		p.reused++
		p.mu.Unlock()
		w.next = nil
		return w
	}
	p.spawned++
	p.mu.Unlock()
	w := &pworker{}
	// The stop function is dropped: workers never expire.
	w.resume, _ = iter.Pull(w.loop)
	return w
}

// loop is the body of the coroutine: run the process the driver handed
// over, yield — and when resumed again, a new process is waiting in fn.
func (w *pworker) loop(yield func(struct{}) bool) {
	w.yield = yield
	for {
		w.run()
		yield(struct{}{})
	}
}

// run executes the process. If it panics the coroutine is gone and
// iter.Pull re-raises the value in the driver's resume, on the driver's
// stack; the stack that explains the panic is this one, so it rides along.
func (w *pworker) run() {
	defer func() {
		if r := recover(); r != nil {
			panic(fmt.Sprintf("%v\n\nvtime process stack:\n%s", r, debug.Stack()))
		}
	}()
	if w.q != nil {
		w.q.drain()
	} else {
		w.fn()
	}
	w.fn, w.q = nil, nil
}

// park switches from the running process back to its driver; it returns
// when the driver resumes the process.
func (w *pworker) park() { w.yield(struct{}{}) }

// put returns a worker whose process has returned to the idle list. The
// driver calls it once the coroutine has yielded, never the coroutine
// itself: a worker visible on the list may be resumed by another
// scheduler's driver at once.
func (p *Pool) put(w *pworker) {
	p.mu.Lock()
	w.next = p.idle
	p.idle = w
	p.mu.Unlock()
}
