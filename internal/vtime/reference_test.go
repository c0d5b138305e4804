package vtime

import (
	"slices"
	"sort"
	"sync"
	"time"
)

// refSched is the oracle the scheduler is checked against (see
// TestSchedulerMatchesReference): the same contract written the plainest way
// — a goroutine per process, a timer list kept sorted by (instant, schedule
// order), one condition variable every goroutine waits on for its turn, no
// pool, no recycling, nothing clever. The contract: one process runs at a
// time; spawns and wakes join the back of one ready list; when that list is
// empty the clock jumps to the earliest timer and every timer of that
// instant fires, in schedule order, before any process runs again.
type refSched struct {
	mu     sync.Mutex
	turn   *sync.Cond
	now    time.Duration
	seq    int
	timers []*refAlarm // sorted by (at, seq)
	ready  []*refProc  // runnable, in wake order
	cur    *refProc    // whose turn it is; nil when it is nobody's
}

type refAlarm struct {
	at   time.Duration
	seq  int
	fire func() // runs with mu held
	done bool   // fired or cancelled
}

// refProc is one process: the result of its last Pop.
type refProc struct {
	v any
}

func newRefSched() *refSched {
	s := &refSched{}
	s.turn = sync.NewCond(&s.mu)
	return s
}

func (s *refSched) Elapsed() time.Duration {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// The unexported methods are called with mu held.

func (s *refSched) schedule(d time.Duration, fire func()) *refAlarm {
	s.seq++
	t := &refAlarm{at: s.now + max(d, 0), seq: s.seq, fire: fire}
	i := sort.Search(len(s.timers), func(i int) bool { return s.timers[i].at > t.at })
	s.timers = slices.Insert(s.timers, i, t)
	return t
}

func (s *refSched) cancel(t *refAlarm) bool {
	if t == nil || t.done {
		return false
	}
	t.done = true
	if i := slices.Index(s.timers, t); i >= 0 {
		s.timers = slices.Delete(s.timers, i, i+1)
	}
	return true
}

// next passes the turn to the oldest ready process, first firing timers, a
// whole instant at a time, for as long as none is ready.
func (s *refSched) next() {
	for len(s.ready) == 0 && len(s.timers) > 0 {
		s.now = s.timers[0].at
		n := sort.Search(len(s.timers), func(i int) bool { return s.timers[i].at > s.now })
		batch := slices.Clone(s.timers[:n])
		s.timers = s.timers[n:]
		for _, t := range batch {
			if !t.done {
				t.done = true
				t.fire()
			}
		}
	}
	s.cur = nil
	if len(s.ready) > 0 {
		s.cur, s.ready = s.ready[0], s.ready[1:]
	}
	s.turn.Broadcast()
}

// park gives the turn away and blocks until it comes back to p.
func (s *refSched) park(p *refProc) {
	s.next()
	for s.cur != p {
		s.turn.Wait()
	}
}

func (s *refSched) spawn(fn func()) {
	p := &refProc{}
	s.ready = append(s.ready, p)
	go func() {
		s.mu.Lock()
		for s.cur != p {
			s.turn.Wait()
		}
		s.mu.Unlock()
		fn()
		s.mu.Lock()
		s.next()
		s.mu.Unlock()
	}()
}

func (s *refSched) Go(fn func()) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.spawn(fn)
}

func (s *refSched) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	p := s.cur
	s.schedule(d, func() { s.ready = append(s.ready, p) })
	s.park(p)
}

type refStopper struct {
	s *refSched
	t *refAlarm
}

func (r refStopper) Stop() bool {
	r.s.mu.Lock()
	defer r.s.mu.Unlock()
	return r.s.cancel(r.t)
}

func (s *refSched) AfterFunc(d time.Duration, fn func()) stopper {
	s.mu.Lock()
	defer s.mu.Unlock()
	return refStopper{s, s.schedule(d, func() { s.spawn(fn) })}
}

func (s *refSched) Wait() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.cur == nil {
		s.next()
	}
	for s.cur != nil {
		s.turn.Wait()
	}
}

func (s *refSched) NewQueue() squeue { return &refQueue{s: s} }

func (s *refSched) Serve(q squeue, fn func(any)) { serveByLoop(s, q, fn) }

type refQueue struct {
	s      *refSched
	items  []any
	waits  []*refProc
	closed bool
}

// wake ends p's Pop with v (a value or ErrClosed).
func (q *refQueue) wake(p *refProc, v any) {
	p.v = v
	q.s.ready = append(q.s.ready, p)
}

func (q *refQueue) push(v any) error {
	switch {
	case q.closed:
		return ErrClosed
	case len(q.waits) > 0:
		p := q.waits[0]
		q.waits = q.waits[1:]
		q.wake(p, v)
	default:
		q.items = append(q.items, v)
	}
	return nil
}

func (q *refQueue) Push(v any) error {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	return q.push(v)
}

func (q *refQueue) PushAt(v any, at time.Time) {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	q.s.schedule(at.Sub(Epoch)-q.s.now, func() { _ = q.push(v) })
}

func (q *refQueue) Pop() (any, error) {
	s := q.s
	s.mu.Lock()
	defer s.mu.Unlock()
	if len(q.items) > 0 {
		v := q.items[0]
		q.items = q.items[1:]
		return v, nil
	}
	if q.closed {
		return nil, ErrClosed
	}
	p := s.cur
	q.waits = append(q.waits, p)
	s.park(p)
	if err, ok := p.v.(error); ok {
		return nil, err
	}
	return p.v, nil
}

func (q *refQueue) Close() {
	q.s.mu.Lock()
	defer q.s.mu.Unlock()
	if q.closed {
		return
	}
	q.closed = true
	for _, p := range q.waits {
		q.wake(p, ErrClosed)
	}
	q.waits = nil
}
