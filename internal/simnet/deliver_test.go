package simnet

import (
	"bytes"
	"runtime"
	"testing"
	"time"

	"peerlab/internal/transport"
)

// TestDeliveryAllocBudget pins a delivered frame at zero allocations once the
// network's envelope free list and the scheduler have warmed up, on a served
// endpoint and on one read with Recv alike. Each receiver reads a head while
// it is valid (inside the callback, before the next Recv) and keeps the rest
// of the message: every one must read as sent after the deliveries behind
// it.
func TestDeliveryAllocBudget(t *testing.T) {
	const frames = 1024 // per round and receiver
	n := New(1)
	a := n.MustAddNode("a", DefaultProfile())
	b := n.MustAddNode("b", DefaultProfile())
	src, err := a.Endpoint("src")
	if err != nil {
		t.Fatal(err)
	}
	served, err := b.Endpoint("served")
	if err != nil {
		t.Fatal(err)
	}
	pulled, err := b.Endpoint("pulled")
	if err != nil {
		t.Fatal(err)
	}
	heads := make([][]byte, 2*frames)
	for i := range heads {
		heads[i] = []byte{byte(i), byte(i >> 8)}
	}
	var kept [2][]transport.Message
	var read [2][][2]byte // each kept message's head, as read while valid
	for i := range kept {
		kept[i] = make([]transport.Message, 0, len(heads))
		read[i] = make([][2]byte, 0, len(heads))
	}
	keep := func(r int, m transport.Message) {
		read[r] = append(read[r], [2]byte(m.Payload))
		kept[r] = append(kept[r], m)
	}
	served.Serve(func(m transport.Message) { keep(0, m) })
	n.Scheduler().Go(func() {
		for {
			m, err := pulled.Recv()
			if err != nil {
				return
			}
			keep(1, m)
		}
	})
	var allocs uint64
	n.Run(func() {
		// Both rounds put every frame in flight at once, so the second finds
		// the envelopes and the timer heap the first one grew.
		round := func(heads [][]byte) {
			for _, h := range heads {
				if err := src.SendFrame(served.Addr(), h, nil, 0); err != nil {
					t.Error(err)
				}
				if err := src.SendFrame(pulled.Addr(), h, h, 0); err != nil {
					t.Error(err)
				}
			}
			a.Sleep(time.Second) // every frame has landed
		}
		round(heads[:frames])
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		round(heads[frames:])
		runtime.ReadMemStats(&after)
		allocs = after.Mallocs - before.Mallocs
		pulled.Close()
	})
	// A stray runtime allocation can land in the window; one per frame, as a
	// boxed message was, would count 2048.
	if allocs > frames/100 {
		t.Fatalf("%d allocations for %d delivered frames after warm-up, want 0", allocs, 2*frames)
	}
	for r, msgs := range kept {
		if len(msgs) != len(heads) {
			t.Fatalf("receiver %d kept %d messages, want %d", r, len(msgs), len(heads))
		}
		for i, m := range msgs {
			want := []byte{byte(i), byte(i >> 8)}
			body, size := []byte(nil), 2
			if r == 1 {
				body, size = want, 4
			}
			if m.From != src.Addr() || !bytes.Equal(read[r][i][:], want) || !bytes.Equal(m.Body, body) || m.Size != size {
				t.Fatalf("receiver %d, message %d reads %+v with head % x, want head % x, body % x, size %d", r, i, m, read[r][i], want, body, size)
			}
		}
	}
}

// TestSenderMayReuseItsHead sends every frame from one head buffer, which the
// sender overwrites as soon as SendFrame returns, with bodies of their own.
// The network owns the head it delivers: a served receiver reads each head as
// sent inside its callback, and the bodies it kept read as sent at the end.
func TestSenderMayReuseItsHead(t *testing.T) {
	const frames = 64
	n := New(1)
	a := n.MustAddNode("a", DefaultProfile())
	src, err := a.Endpoint("src")
	if err != nil {
		t.Fatal(err)
	}
	dst, err := n.MustAddNode("b", DefaultProfile()).Endpoint("dst")
	if err != nil {
		t.Fatal(err)
	}
	var heads []byte
	var bodies [][]byte
	dst.Serve(func(m transport.Message) {
		heads = append(heads, m.Payload...)
		bodies = append(bodies, m.Body)
	})
	n.Run(func() {
		head := make([]byte, 1)
		for i := 0; i < frames; i++ {
			head[0] = byte(i)
			if err := src.SendFrame(dst.Addr(), head, []byte{byte(i), 0xB0}, 0); err != nil {
				t.Error(err)
			}
			head[0] = 0xFF
		}
	})
	if len(heads) != frames || len(bodies) != frames {
		t.Fatalf("served %d heads and %d bodies, want %d", len(heads), len(bodies), frames)
	}
	for i := range heads {
		if heads[i] != byte(i) || !bytes.Equal(bodies[i], []byte{byte(i), 0xB0}) {
			t.Fatalf("frame %d read head %x, body % x: not as sent", i, heads[i], bodies[i])
		}
	}
}

// BenchmarkDeliver prices one frame sent and served: the sender's SendFrame
// with its serialization sleep, the scheduled arrival and the served
// endpoint's handler. With no propagation delay a frame lands as its sender
// wakes, so one frame is in flight at a time.
func BenchmarkDeliver(b *testing.B) {
	p := DefaultProfile()
	p.LatencyOneWay = 0
	n := New(1)
	a := n.MustAddNode("a", p)
	src, err := a.Endpoint("src")
	if err != nil {
		b.Fatal(err)
	}
	dst, err := n.MustAddNode("b", p).Endpoint("dst")
	if err != nil {
		b.Fatal(err)
	}
	served := 0
	dst.Serve(func(transport.Message) { served++ })
	head := []byte("frame")
	b.ReportAllocs()
	n.Run(func() {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if err := src.SendFrame(dst.Addr(), head, nil, 0); err != nil {
				b.Error(err)
				return
			}
		}
		a.Sleep(time.Second)
		b.StopTimer()
	})
	if served != b.N {
		b.Fatalf("served %d frames, sent %d", served, b.N)
	}
}
