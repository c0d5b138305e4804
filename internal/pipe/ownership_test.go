package pipe

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"peerlab/internal/vtime"
)

// TestSentPayloadIsSharedNotWritten pins the send rule handleData relies on
// now that a payload travels by reference: one buffer, sent on several conns
// at once by several senders each, under loss that forces retransmissions
// and parks messages in the reorder buffer behind lost ones, reaches every
// receiver as the very bytes sent. At the end the buffer equals a copy saved
// before the first send, so neither pipe nor transport wrote it, and a
// receiver's append to its payload copies rather than writing past it.
func TestSentPayloadIsSharedNotWritten(t *testing.T) {
	r := newRig(t, lossyProfile(0.2), lossyProfile(0.2), Options{Window: 4})
	const conns, senders, n = 3, 4, 32
	// Spare capacity past the sent bytes: an append that is not clipped
	// would write there.
	shared := append(make([]byte, 0, 64), bytes.Repeat([]byte{0x5A, 0xA5, 0x3C}, 16)...)
	saved := bytes.Clone(shared)
	var got []Message
	reordered := false
	for c := 0; c < conns; c++ {
		r.net.Scheduler().Go(func() {
			conn, err := r.muxB.Accept()
			if err != nil {
				t.Errorf("Accept: %v", err)
				return
			}
			for i := 0; i < senders*n; i++ {
				m, err := conn.Recv()
				if err != nil {
					t.Errorf("Recv %d: %v", i, err)
					return
				}
				got = append(got, m)
			}
			conn.c.mu.Lock()
			reordered = reordered || conn.c.recvBuf != nil
			conn.c.mu.Unlock()
		})
	}
	var dialed []Conn
	r.net.Run(func() {
		join := vtime.NewQueue(r.net.Scheduler())
		for c := 0; c < conns; c++ {
			conn, err := r.muxA.Dial("b/pipe")
			if err != nil {
				t.Errorf("Dial: %v", err)
				return
			}
			dialed = append(dialed, conn)
			for w := 0; w < senders; w++ {
				r.net.Scheduler().Go(func() {
					for i := 0; i < n; i++ {
						if err := conn.Send(shared); err != nil {
							t.Errorf("Send: %v", err)
						}
					}
					join.Push(nil)
				})
			}
		}
		for i := 0; i < conns*senders; i++ {
			join.Pop()
		}
	})
	var retransmits int64
	for _, conn := range dialed {
		retransmits += conn.Retransmissions()
	}
	if len(got) != conns*senders*n {
		t.Fatalf("received %d messages, want %d", len(got), conns*senders*n)
	}
	if !reordered || retransmits == 0 {
		t.Fatalf("reorder buffer used: %v, retransmissions: %d; the test no longer covers both", reordered, retransmits)
	}
	for i, m := range got {
		if !bytes.Equal(m.Payload, saved) || &m.Payload[0] != &shared[0] {
			t.Fatalf("message %d is not the sent buffer: % x", i, m.Payload)
		}
		if grown := append(m.Payload, 0xEE); &grown[0] == &shared[0] {
			t.Fatalf("an append to message %d wrote past the shared buffer", i)
		}
	}
	if !bytes.Equal(shared, saved) {
		t.Fatalf("the sent buffer was written: % x", shared)
	}
}

// poolDropsPuts reports whether a sync.Pool loses what it was just given,
// as it does on purpose under the race detector.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(&i)
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// perMessage reports what one acknowledged data message of the given payload
// size costs end to end (sender, both muxes, simulated network, receiver):
// allocations and heap bytes, averaged over msgs sends of one buffer.
func perMessage(t *testing.T, size, msgs int) (allocs, heap float64) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	})
	r.net.Run(func() {
		conn, err := r.muxA.Dial("b/pipe")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		payload := make([]byte, size)
		send := func(k int) {
			for i := 0; i < k; i++ {
				if err := conn.Send(payload); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
			}
		}
		send(64) // conn state, free lists and pools settle
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		send(msgs)
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(msgs)
		heap = float64(after.TotalAlloc-before.TotalAlloc) / float64(msgs)
	})
	return allocs, heap
}

// perPost reports the allocations of one posted answer end to end, averaged
// over msgs exchanges on one conn: the dialer's Send of a request, the served
// handler's Post of the answer and its completion, and the dialer's Recv.
func perPost(t *testing.T, msgs int) (allocs float64) {
	answer := []byte("answer")
	reply := func(conn Conn, ev Event) {
		switch {
		case ev.Posted && ev.Err == nil:
		case ev.Err != nil:
			conn.Close()
		default:
			if err := conn.Post(answer); err != nil {
				t.Errorf("Post: %v", err)
			}
		}
	}
	r := newRig(t, cleanProfile(), cleanProfile(), Options{Serve: func(Conn) Handler { return handlerFunc(reply) }})
	r.net.Run(func() {
		conn, err := r.muxA.Dial("b/pipe")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		defer conn.Close()
		request := []byte("request")
		exchange := func(k int) {
			for i := 0; i < k; i++ {
				if err := conn.Send(request); err != nil {
					t.Errorf("Send: %v", err)
					return
				}
				if _, err := conn.Recv(); err != nil {
					t.Errorf("Recv: %v", err)
					return
				}
			}
		}
		exchange(64) // conn state, free lists, timers and pools settle
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		exchange(msgs)
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(msgs)
	})
	return allocs
}

// TestDataMessageAllocBudget gates one acknowledged data message end to end.
// The allocation budget is an exact count, and the payload travels by
// reference: a 16 KB message costs at most 64 B more than a 64 B one (a
// longer length varint in the frame header), so a reintroduced copy of the
// payload fails here and not in a profile.
func TestDataMessageAllocBudget(t *testing.T) {
	const msgs, budget = 4096, 0
	if poolDropsPuts() {
		t.Skip("sync.Pool drops Puts at random (race detector): frame encoders are re-allocated and the count is not exact")
	}
	allocs, small := perMessage(t, 64, msgs)
	_, large := perMessage(t, 16<<10, msgs)
	posted := perPost(t, msgs)
	t.Logf("%.2f allocations per acknowledged message, %.2f per posted answer; %.0f B at a 64 B payload, %.0f B at 16 KB", allocs, posted, small, large)
	if allocs > budget+0.5 {
		t.Fatalf("%.2f allocations per data message, budget %d", allocs, budget)
	}
	if posted > budget+0.5 {
		t.Fatalf("%.2f allocations per posted answer and its request, budget %d", posted, budget)
	}
	if large > small+64 {
		t.Fatalf("a 16 KB message costs %.0f B, a 64 B one %.0f B: the payload is copied", large, small)
	}
}

// shortConns reports what one short conn costs on warm muxes, averaged over
// calls round trips: a dial, one message and its echo, and a Close on each
// side — a control RPC's shape.
func shortConns(tb testing.TB, calls int) (allocs float64) {
	echo := func(conn Conn, ev Event) {
		defer conn.Close()
		if ev.Err == nil {
			conn.Send(ev.Msg.Payload)
		}
	}
	r := newRig(tb, cleanProfile(), cleanProfile(), Options{Serve: func(Conn) Handler { return handlerFunc(echo) }})
	payload := []byte("request")
	call := func() {
		conn, err := r.muxA.Dial("b/pipe")
		if err == nil {
			err = conn.Send(payload)
		}
		if err == nil {
			_, err = conn.Recv()
		}
		if err != nil {
			tb.Errorf("call: %v", err)
		}
		conn.Close()
	}
	r.net.Run(func() {
		for i := 0; i < 64; i++ { // free lists, pools and coroutines settle
			call()
		}
		if b, ok := tb.(*testing.B); ok {
			b.ResetTimer()
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < calls; i++ {
			call()
		}
		runtime.ReadMemStats(&after)
		allocs = float64(after.Mallocs-before.Mallocs) / float64(calls)
	})
	return allocs
}

// TestShortConnAllocBudget gates a short conn end to end: both muxes reuse
// torn-down conns, inbox queues included, and spawn the accepted conn's
// handler without a closure, so a warm round trip allocates nothing but the
// occasional growth of the accepting mux's tombstone map.
func TestShortConnAllocBudget(t *testing.T) {
	const calls, budget = 4096, 0
	if poolDropsPuts() {
		t.Skip("sync.Pool drops Puts at random (race detector): frame encoders are re-allocated and the count is not exact")
	}
	allocs := shortConns(t, calls)
	t.Logf("%.2f allocations per short conn", allocs)
	if allocs > budget+0.5 {
		t.Fatalf("%.2f allocations per short conn, budget %d", allocs, budget)
	}
}
