package vtime

import (
	"math/rand"
	"slices"
	"testing"
)

// TestFifoMatchesSlice runs seeded programs of push, pop, drain and
// refill against a fifo and a plain slice, and compares the live values after
// every step. Each program starts empty and keeps the queue short, so it
// crosses the one-to-two-element growth many times, and it reaches the
// slide-down of a full, half-dead backing array. Popped slots must read nil: a dead slot that still points at a value pins it.
func TestFifoMatchesSlice(t *testing.T) {
	var grew, slid int
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		var f fifo[*int]
		var ref []*int
		next := 0
		push := func() {
			if len(f.buf) == 1 && cap(f.buf) == 1 && f.head == 0 {
				grew++
			}
			if len(f.buf) == cap(f.buf) && f.head > 0 && f.head >= len(f.buf)/2 {
				slid++
			}
			v := new(int)
			*v = next
			next++
			f.push(v)
			ref = append(ref, v)
		}
		for step := 0; step < 400; step++ {
			switch op := rng.Intn(10); {
			case op < 4:
				push()
			case op < 8:
				v, ok := f.pop()
				if ok != (len(ref) > 0) {
					t.Fatalf("seed %d step %d: pop ok = %v with %d queued", seed, step, ok, len(ref))
				}
				if ok {
					if v != ref[0] {
						t.Fatalf("seed %d step %d: pop = %d, want %d", seed, step, *v, *ref[0])
					}
					ref = ref[1:]
				}
			case op < 9: // drain
				for _, ok := f.pop(); ok; _, ok = f.pop() {
				}
				ref = nil
			default: // refill
				for k := rng.Intn(5); k >= 0; k-- {
					push()
				}
			}
			if live := f.buf[f.head:]; f.len() != len(ref) || !slices.Equal(live, ref) {
				t.Fatalf("seed %d step %d: fifo holds %v, want %v", seed, step, deref(live), deref(ref))
			}
			for i, v := range f.buf[:f.head] {
				if v != nil {
					t.Fatalf("seed %d step %d: dead slot %d still holds %d", seed, step, i, *v)
				}
			}
			for i, v := range f.buf[len(f.buf):cap(f.buf)] {
				if v != nil {
					t.Fatalf("seed %d step %d: slot %d past the end still holds %d", seed, step, len(f.buf)+i, *v)
				}
			}
		}
	}
	if grew == 0 || slid == 0 {
		t.Fatalf("one-to-two growths: %d, slide-downs: %d; the programs no longer cover both", grew, slid)
	}
}

func deref(vs []*int) []int {
	out := make([]int, len(vs))
	for i, v := range vs {
		out[i] = *v
	}
	return out
}
