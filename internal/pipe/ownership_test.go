package pipe

import (
	"bytes"
	"runtime"
	"sync"
	"testing"

	"peerlab/internal/vtime"
)

// TestReceiverOwnsPayload pins the buffer rule handleData relies on now that
// it hands the frame's payload up without copying: whatever the sender does
// to its buffer once Send has returned, and however a message reached the
// inbox (in order, or parked in the reorder buffer behind a lost one), the
// receiver's Message.Payload is the bytes that were sent.
func TestReceiverOwnsPayload(t *testing.T) {
	r := newRig(t, lossyProfile(0.2), lossyProfile(0.2), Options{Window: 4, MaxRetries: 30})
	const n, senders, size = 64, 4, 48
	want := func(i int) []byte { return bytes.Repeat([]byte{byte(i + 1)}, size) }
	var got []Message
	reordered := false
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		for i := 0; i < n; i++ {
			m, err := conn.Recv()
			if err != nil {
				t.Errorf("Recv %d: %v", i, err)
				return
			}
			got = append(got, m)
		}
		conn.mu.Lock()
		reordered = conn.recvBuf != nil
		conn.mu.Unlock()
	})
	r.net.Run(func() {
		conn, err := r.muxA.Dial("b/pipe")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		join := vtime.NewQueue(r.net.Scheduler())
		for w := 0; w < senders; w++ {
			w := w
			r.net.Scheduler().Go(func() {
				buf := make([]byte, size)
				for i := w; i < n; i += senders {
					copy(buf, want(i))
					if err := conn.Send(buf); err != nil {
						t.Errorf("Send %d: %v", i, err)
					}
					for j := range buf { // the buffer is the sender's again
						buf[j] = 0xEE
					}
				}
				join.Push(nil)
			})
		}
		for w := 0; w < senders; w++ {
			join.Pop()
		}
	})
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	if !reordered {
		t.Fatal("no message took the reorder-buffer path; the test no longer covers it")
	}
	seen := make(map[byte]bool)
	for i, m := range got {
		if len(m.Payload) != size || !bytes.Equal(m.Payload, want(int(m.Payload[0])-1)) {
			t.Fatalf("message %d corrupted after the sender reused its buffer: % x", i, m.Payload)
		}
		if seen[m.Payload[0]] {
			t.Fatalf("message %d delivered twice", m.Payload[0]-1)
		}
		seen[m.Payload[0]] = true
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

// TestDataMessageAllocBudget gates the allocations of one acknowledged data
// message end to end (sender, both muxes, simulated network, receiver). The
// budget is an exact count, one below what it was while handleData copied
// each payload, so a reintroduced copy fails here and not in a profile.
func TestDataMessageAllocBudget(t *testing.T) {
	const msgs, budget = 4096, 14
	if poolDropsPuts() {
		t.Skip("sync.Pool drops Puts at random (race detector): frame encoders are re-allocated and the count is not exact")
	}
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
	var perMsg float64
	r.net.Run(func() {
		conn, err := r.muxA.Dial("b/pipe")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		payload := make([]byte, 64)
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
		perMsg = float64(after.Mallocs-before.Mallocs) / msgs
	})
	t.Logf("%.2f allocations per acknowledged message", perMsg)
	if perMsg > budget+0.5 {
		t.Fatalf("%.2f allocations per data message, budget %d", perMsg, budget)
	}
}
