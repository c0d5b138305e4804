package pipe

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/vtime"
	"peerlab/internal/wire"
)

// TestReorderedDeliveryUnderLoss sends distinct buffers from four concurrent
// senders on one Window: 4 conn under loss, so frames overtake lost ones and
// wait in the reorder buffer. A recording endpoint under the sender maps each
// data frame's body to the seq in its head. The receiver must see every
// buffer once, in seq order, as the very buffer sent.
func TestReorderedDeliveryUnderLoss(t *testing.T) {
	const senders, n = 4, 16
	net := simnet.New(7)
	a := net.MustAddNode("a", lossyProfile(0.2))
	b := net.MustAddNode("b", lossyProfile(0.2))
	epA, err := a.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingEndpoint{Endpoint: epA}
	muxA, muxB := NewMux(a, rec, Options{Window: senders}), NewMux(b, epB, Options{Window: senders})
	var got []Message
	reordered := false
	net.Scheduler().Go(func() {
		conn, err := muxB.Accept()
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
		reordered = conn.c.recvBuf != nil
		conn.c.mu.Unlock()
	})
	net.Run(func() {
		conn, err := muxA.Dial(epB.Addr())
		if err != nil {
			t.Error(err)
			return
		}
		join := vtime.NewQueue(net.Scheduler())
		for w := 0; w < senders; w++ {
			net.Scheduler().Go(func() {
				for i := 0; i < n; i++ {
					if err := conn.Send([]byte{byte(w), byte(i)}); err != nil {
						t.Errorf("sender %d, message %d: %v", w, i, err)
					}
				}
				join.Push(nil)
			})
		}
		for w := 0; w < senders; w++ {
			join.Pop()
		}
	})
	seqOf := make(map[*byte]uint64)
	for _, f := range rec.frames {
		if f.head[0] != kindData {
			continue
		}
		d := wire.NewDecoder(f.head[1:])
		d.Bool()
		d.Uint64()
		seqOf[&f.body[0]] = d.Uint64()
	}
	if len(seqOf) != senders*n {
		t.Fatalf("recorded %d distinct data buffers, want %d", len(seqOf), senders*n)
	}
	if len(got) != senders*n {
		t.Fatalf("received %d messages, want %d", len(got), senders*n)
	}
	if !reordered {
		t.Fatal("the reorder buffer was never used; the test no longer covers it")
	}
	for i, m := range got {
		seq, sent := seqOf[&m.Payload[0]]
		if !sent || len(m.Payload) != 2 {
			t.Fatalf("message %d (% x) is not a buffer that was sent", i, m.Payload)
		}
		if seq != uint64(i+1) {
			t.Fatalf("message %d carries seq %d: delivered out of seq order", i, seq)
		}
	}
}

// TestBufferedMessagesOutliveClose buffers three messages at a receiver that
// is not reading, then ends the conn: by the sender's FIN, or by the
// receiver's own Close. Either way the three stay readable, in order, and
// the fourth Recv reports ErrClosed.
func TestBufferedMessagesOutliveClose(t *testing.T) {
	for _, byFin := range []bool{true, false} {
		t.Run(fmt.Sprintf("fin=%v", byFin), func(t *testing.T) {
			r := newRig(t, cleanProfile(), cleanProfile(), Options{})
			var got []string
			var last error
			r.net.Scheduler().Go(func() {
				conn, err := r.muxB.Accept()
				if err != nil {
					t.Errorf("Accept: %v", err)
					return
				}
				r.net.Scheduler().Sleep(time.Second) // all three buffered, the FIN landed
				if !byFin {
					conn.Close()
				}
				for {
					m, err := conn.Recv()
					if err != nil {
						last = err
						return
					}
					got = append(got, string(m.Payload))
				}
			})
			r.net.Run(func() {
				conn, err := r.muxA.Dial("b/pipe")
				if err != nil {
					t.Error(err)
					return
				}
				for _, s := range []string{"one", "two", "three"} {
					if err := conn.Send([]byte(s)); err != nil {
						t.Errorf("Send %s: %v", s, err)
					}
				}
				if byFin {
					conn.Close()
				}
			})
			if fmt.Sprint(got) != "[one two three]" || !errors.Is(last, ErrClosed) {
				t.Fatalf("read %v then %v, want [one two three] then ErrClosed", got, last)
			}
		})
	}
}

// TestDeadlineRecvReturnsBufferedMessage reads, with a Recv under a
// deadline, a message that was buffered before the Recv was called, at once,
// and one that arrives while it waits, at its arrival.
func TestDeadlineRecvReturnsBufferedMessage(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var got []string
	var waited []time.Duration
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		r.net.Scheduler().Sleep(time.Second) // "early" is buffered
		for i := 0; i < 2; i++ {
			began := r.net.Scheduler().Elapsed()
			conn.CloseAfter(time.Minute)
			m, err := conn.Recv()
			conn.CloseAfter(-1)
			if err != nil {
				t.Errorf("Recv %d: %v", i, err)
				return
			}
			got = append(got, string(m.Payload))
			waited = append(waited, r.net.Scheduler().Elapsed()-began)
		}
	})
	r.net.Run(func() {
		conn, err := r.muxA.Dial("b/pipe")
		if err != nil {
			t.Error(err)
			return
		}
		conn.Send([]byte("early"))
		r.net.Scheduler().Sleep(2 * time.Second)
		conn.Send([]byte("late"))
	})
	if fmt.Sprint(got) != "[early late]" {
		t.Fatalf("read %v, want [early late]", got)
	}
	if waited[0] != 0 || waited[1] <= 0 || waited[1] >= time.Minute {
		t.Fatalf("waited %v: the buffered message must come at once, the late one on arrival", waited)
	}
}

// TestFinOvertakingDataWaitsForIt drives b's dispatch with frames from a in
// the order a CloseAfter deadline, or an owner closing while part senders are
// still in Send, can put on the wire: data seq 1, the FIN naming seq 3 as
// the first seq never sent, then data seq 2. The FIN closes the inbox only
// once seq 2 filled the gap, so Recv returns both messages, then ErrClosed.
// A FIN whose gap is never filled leaves the inbox open.
func TestFinOvertakingDataWaitsForIt(t *testing.T) {
	for _, filled := range []bool{true, false} {
		t.Run(fmt.Sprintf("filled=%v", filled), func(t *testing.T) {
			r := newRig(t, cleanProfile(), cleanProfile(), Options{})
			frame := func(kind byte, seq uint64, body string) transport.Message {
				e := wire.NewEncoder(0)
				e.Byte(kind)
				e.Bool(true) // the id is the sender's
				e.Uint64(1)
				e.Uint64(seq)
				e.Uint64(0)
				e.Uint64(uint64(len(body)))
				return transport.Message{From: r.muxA.Addr(), Payload: e.Bytes(), Body: []byte(body), Size: e.Len() + len(body)}
			}
			var got []string
			var last error
			r.net.Run(func() {
				r.muxB.dispatch(frame(kindData, 1, "one"))
				r.muxB.dispatch(frame(kindFin, 3, ""))
				if filled {
					r.muxB.dispatch(frame(kindData, 2, "two"))
				}
				conn, err := r.muxB.Accept()
				if err != nil {
					t.Errorf("Accept: %v", err)
					return
				}
				for {
					conn.CloseAfter(time.Minute)
					m, err := conn.Recv()
					if err != nil {
						last = err
						return
					}
					got = append(got, string(m.Payload))
				}
			})
			want, wantErr := "[one two]", ErrClosed
			if !filled {
				want, wantErr = "[one]", ErrTimeout
			}
			if fmt.Sprint(got) != want || !errors.Is(last, wantErr) {
				t.Fatalf("read %v then %v, want %s then %v", got, last, want, wantErr)
			}
		})
	}
}
