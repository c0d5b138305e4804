package vtime

import (
	"errors"
	"slices"
	"time"
)

// ErrClosed is returned by Queue operations after Close.
var ErrClosed = errors.New("vtime: queue closed")

// Queue is an unbounded FIFO of values integrated with the scheduler: Pop
// parks the calling process — a yield to the driver, which runs whatever is
// ready next — without stalling virtual time, and Push (from a process, a
// timer or any other goroutine) hands the value to the oldest waiter and
// makes it runnable.
//
// Queue is the rendezvous point between simulated network links and protocol
// code: it plays the role a socket receive buffer plays in a real host.
// Buffered values and parked processes both sit in head-indexed FIFOs that
// keep their backing arrays, so a queue in steady use allocates nothing.
type Queue struct {
	s      *Scheduler
	items  fifo[any]
	waits  fifo[*pworker] // parked Pops, oldest first; each waiter's slot is in its pworker
	closed bool
}

// NewQueue returns an empty queue bound to the scheduler.
func NewQueue(s *Scheduler) *Queue {
	return &Queue{s: s}
}

// Push appends v and wakes the oldest waiter, if any. Push on a closed queue
// returns ErrClosed and drops the value.
func (q *Queue) Push(v any) error {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return q.pushLocked(v)
}

// pushLocked is Push with the scheduler lock held; a PushAt timer fires
// through it.
func (q *Queue) pushLocked(v any) error {
	if q.closed {
		return ErrClosed
	}
	if w, ok := q.waits.pop(); ok {
		q.deliverLocked(w, v)
		return nil
	}
	q.items.push(v)
	return nil
}

// deliverLocked ends w's park with result v: its deadline, if armed, is
// dropped and it joins the ready ring. w is already off the wait list.
// Caller holds the scheduler lock.
func (q *Queue) deliverLocked(w *pworker, v any) {
	q.s.cancelLocked(w.deadline)
	w.deadline = nil
	w.v = v
	q.s.parked--
	q.s.admitLocked(readyItem{w: w})
}

// expireLocked fires w's Pop deadline: w leaves the wait list, wherever in
// it it stands, and wakes with ErrTimeout. Caller holds the scheduler lock.
func (q *Queue) expireLocked(w *pworker) {
	if i := slices.Index(q.waits.live(), w); i >= 0 {
		q.waits.remove(i)
	}
	w.deadline = nil // it is the entry being fired
	q.deliverLocked(w, errTimeoutMarker{})
}

// Pop removes and returns the oldest value, parking the calling process until
// one is available. It returns ErrClosed once the queue is closed and
// drained.
func (q *Queue) Pop() (any, error) {
	return q.pop(-1)
}

// PopTimeout is Pop with a virtual-time deadline. It returns ErrTimeout if no
// value arrives within d.
func (q *Queue) PopTimeout(d time.Duration) (any, error) {
	return q.pop(d)
}

// ErrTimeout is returned by PopTimeout when the deadline passes first.
var ErrTimeout = errors.New("vtime: pop timeout")

func (q *Queue) pop(timeout time.Duration) (any, error) {
	s := q.s
	s.mu.Lock()
	if v, ok := q.items.pop(); ok {
		s.mu.Unlock()
		return v, nil
	}
	if q.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	w := s.parkingLocked()
	if timeout >= 0 {
		w.deadline = s.scheduleLocked(s.now+timeout, nil)
		w.deadline.q, w.deadline.wake = q, w
	}
	q.waits.push(w)
	s.parked++
	s.mu.Unlock()
	w.park()

	// The waker filled the slot before the driver resumed this process.
	v := w.v
	w.v = nil
	switch v.(type) {
	case errTimeoutMarker:
		return nil, ErrTimeout
	case errClosedMarker:
		return nil, ErrClosed
	default:
		return v, nil
	}
}

type errTimeoutMarker struct{}
type errClosedMarker struct{}

// PushAt schedules v to be pushed at absolute virtual time at. If at is in
// the past it is clamped to now. Pushes scheduled for the same instant are
// delivered in PushAt call order. The push is silently dropped if the queue
// is closed by then — exactly the semantics of a datagram arriving at a dead
// socket.
func (q *Queue) PushAt(v any, at time.Time) {
	s := q.s
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.scheduleLocked(max(at.Sub(Epoch), s.now), nil)
	e.q, e.v = q, v
}

// Len reports the number of buffered values.
func (q *Queue) Len() int {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return q.items.len()
}

// Close marks the queue closed and wakes every waiter, oldest first, with
// ErrClosed. Values already buffered remain poppable; once drained, Pop
// reports ErrClosed.
func (q *Queue) Close() {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for w, ok := q.waits.pop(); ok; w, ok = q.waits.pop() {
		q.deliverLocked(w, errClosedMarker{})
	}
}
