package vtime

import (
	"time"

	"peerlab/internal/transport"
)

// ErrClosed is returned by Queue operations after Close. It is transport's,
// so a *Queue is a transport.Queue as it stands.
var ErrClosed = transport.ErrClosed

// Queue is an unbounded FIFO of values integrated with the scheduler, a
// socket's receive buffer between simulated links and protocol code: Pop
// parks the calling process without stalling virtual time, and Push (from
// anywhere) hands the value to the oldest waiter, or to the handler of a
// served queue (see Serve). A queue in steady use allocates nothing.
type Queue struct {
	s        *Scheduler
	items    fifo[any]
	waits    fifo[*pworker] // parked Pops, oldest first; each waiter's slot is in its pworker
	serve    func(any)      // a served queue's consumer, see Serve
	closed   bool
	draining bool // the drain is in the ready ring or running
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
	q.wakeDrainLocked()
	return nil
}

// Serve makes fn the queue's only consumer, in place of a process looping on
// Pop. A push that finds no drain pending admits one, in the ring slot where
// it would have woken that process; the drain hands fn the buffered values in
// FIFO order on a pooled coroutine and returns it to the pool once the queue
// is empty. fn may park; values pushed meanwhile wait their turn. An idle
// served queue holds no process and never counts as parked. Close wakes
// nobody, and values buffered by then are still handed to fn. Pop panics.
func (q *Queue) Serve(fn func(any)) {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	q.serve = fn
	q.wakeDrainLocked()
}

// drain is a served queue's consumer process: it hands serve the buffered
// values in order and ends once the queue is empty.
func (q *Queue) drain() {
	for {
		q.s.mu.Lock()
		v, ok := q.items.pop()
		q.draining = ok
		q.s.mu.Unlock()
		if !ok {
			return
		}
		q.serve(v)
	}
}

// wakeDrainLocked admits the drain of a served queue holding values, unless
// one is pending already. Caller holds the scheduler lock.
func (q *Queue) wakeDrainLocked() {
	if q.serve != nil && !q.draining && q.items.len() > 0 {
		q.draining = true
		q.s.admitLocked(readyItem{q: q})
	}
}

// deliverLocked ends w's park with result v: it joins the ready ring. w is
// already off the wait list. Caller holds the scheduler lock.
func (q *Queue) deliverLocked(w *pworker, v any) {
	w.v = v
	q.s.parked--
	q.s.admitLocked(readyItem{w: w})
}

// Pop removes and returns the oldest value, parking the calling process until
// one is available. It returns ErrClosed once the queue is closed and drained.
func (q *Queue) Pop() (any, error) {
	s := q.s
	s.mu.Lock()
	if q.serve != nil {
		s.mu.Unlock()
		panic("vtime: Pop on a served queue")
	}
	if v, ok := q.items.pop(); ok {
		s.mu.Unlock()
		return v, nil
	}
	if q.closed {
		s.mu.Unlock()
		return nil, ErrClosed
	}
	w := s.parkingLocked()
	q.waits.push(w)
	s.parked++
	s.mu.Unlock()
	w.park()

	// The waker filled the slot before the driver resumed this process.
	v := w.v
	w.v = nil
	if _, closed := v.(errClosedMarker); closed {
		return nil, ErrClosed
	}
	return v, nil
}

type errClosedMarker struct{}

// PushAt schedules v to be pushed at absolute virtual time at, clamped to
// now. Pushes for one instant land in PushAt call order; one that finds the
// queue closed is dropped, as a datagram arriving at a dead socket is.
func (q *Queue) PushAt(v any, at time.Time) {
	s := q.s
	s.mu.Lock()
	defer s.mu.Unlock()
	e := s.scheduleLocked(max(at.Sub(Epoch), s.now))
	e.q, e.v = q, v
}

// Len reports the number of buffered values.
func (q *Queue) Len() int {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return q.items.len()
}

// Reopen implements transport.Queue.Reopen.
func (q *Queue) Reopen() {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	if !q.closed || q.items.len() > 0 || q.waits.len() > 0 || q.draining {
		panic("vtime: Reopen on an open, non-empty, waited-on or draining queue")
	}
	q.closed, q.serve = false, nil
}

// Close marks the queue closed and wakes every waiter, oldest first, with
// ErrClosed. Values already buffered remain poppable.
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
