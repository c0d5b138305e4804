package vtime

// fifo is a head-indexed FIFO over one backing array: pop advances the head
// instead of re-slicing (which gives the array's capacity away and makes the
// next push allocate), the array resets when the queue drains, and a push
// that finds it full and at least half dead slides the live region down
// rather than growing. A queue that fills and drains over and over — a
// socket buffer, a wait list, the ready ring — settles on one allocation. The
// first backing array is the inline one-element one, so a queue that never
// holds two values at once — a request/reply conn's inbox and wait list —
// allocates none. A fifo must not be copied once pushed to.
type fifo[T any] struct {
	buf  []T
	head int
	one  [1]T
}

func (f *fifo[T]) len() int { return len(f.buf) - f.head }

func (f *fifo[T]) push(v T) {
	if f.buf == nil {
		f.buf = f.one[:0]
	}
	if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= len(f.buf)/2 {
		n := copy(f.buf, f.buf[f.head:])
		clear(f.buf[n:])
		f.buf, f.head = f.buf[:n], 0
	}
	f.buf = append(f.buf, v)
}

// pop removes and returns the oldest value; ok is false on an empty queue.
func (f *fifo[T]) pop() (v T, ok bool) {
	if f.head == len(f.buf) {
		return v, false
	}
	var zero T
	v, f.buf[f.head] = f.buf[f.head], zero
	f.head++
	if f.head == len(f.buf) {
		f.buf, f.head = f.buf[:0], 0
	}
	return v, true
}
