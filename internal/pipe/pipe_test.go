package pipe

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/vtime"
)

// handlerFunc is a func as a Handler.
type handlerFunc func(Conn, Event)

func (f handlerFunc) Handle(c Conn, ev Event) { f(c, ev) }

// rig is a two-node simnet with a mux on each side.
type rig struct {
	net  *simnet.Network
	muxA *Mux
	muxB *Mux
}

func newRig(t testing.TB, pa, pb simnet.Profile, opts Options) *rig {
	t.Helper()
	n := simnet.New(7)
	a := n.MustAddNode("a", pa)
	b := n.MustAddNode("b", pb)
	epA, err := a.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	return &rig{net: n, muxA: NewMux(a, epA, opts), muxB: NewMux(b, epB, opts)}
}

func cleanProfile() simnet.Profile {
	p := simnet.DefaultProfile()
	p.LatencyOneWay = 5 * time.Millisecond
	return p
}

// lossyRig is a clean rig that loses every frame, in either direction, with
// probability rate.
func lossyRig(t testing.TB, rate float64, opts Options) *rig {
	t.Helper()
	r := newRig(t, cleanProfile(), cleanProfile(), opts)
	r.net.SetExtraLoss("a", rate)
	return r
}

func TestSendRecvBasic(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var got Message
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			t.Errorf("Accept: %v", err)
			return
		}
		got, err = conn.Recv()
		if err != nil {
			t.Errorf("Recv: %v", err)
		}
	})
	r.net.Run(func() {
		conn, err := r.muxA.Dial("b/pipe")
		if err != nil {
			t.Errorf("Dial: %v", err)
			return
		}
		if err := conn.Send([]byte("hello")); err != nil {
			t.Errorf("Send: %v", err)
		}
	})
	if string(got.Payload) != "hello" {
		t.Fatalf("payload = %q", got.Payload)
	}
}

func TestSendBlocksUntilAcked(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	r.net.Scheduler().Go(func() {
		if conn, err := r.muxB.Accept(); err == nil {
			conn.Recv()
		}
	})
	var sendDone time.Duration
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		conn.Send([]byte("x"))
		sendDone = r.net.Scheduler().Elapsed()
	})
	// One RTT: 10ms out + 10ms back (5ms per access link, both endpoints).
	if sendDone < 20*time.Millisecond {
		t.Fatalf("Send returned at %v; must wait for the ack (>=20ms)", sendDone)
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	const n = 50
	var got []int
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			m, err := conn.Recv()
			if err != nil {
				t.Errorf("Recv %d: %v", i, err)
				return
			}
			got = append(got, int(m.Payload[0])<<8|int(m.Payload[1]))
		}
	})
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		for i := 0; i < n; i++ {
			if err := conn.Send([]byte{byte(i >> 8), byte(i)}); err != nil {
				t.Errorf("Send %d: %v", i, err)
				return
			}
		}
	})
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if v != i {
			t.Fatalf("got[%d] = %d: out of order", i, v)
		}
	}
}

func TestExactlyOnceUnderLoss(t *testing.T) {
	// 30% loss on both directions: retransmissions happen, yet the app sees
	// each message exactly once, in order.
	r := lossyRig(t, 0.3, Options{})
	const n = 30
	var got []byte
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			return
		}
		for i := 0; i < n; i++ {
			m, err := conn.Recv()
			if err != nil {
				t.Errorf("Recv %d: %v", i, err)
				return
			}
			got = append(got, m.Payload[0])
		}
	})
	var retx int64
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		for i := 0; i < n; i++ {
			if err := conn.Send([]byte{byte(i)}); err != nil {
				t.Errorf("Send %d: %v", i, err)
				return
			}
		}
		retx = conn.Retransmissions()
	})
	if len(got) != n {
		t.Fatalf("received %d messages, want %d", len(got), n)
	}
	for i, v := range got {
		if int(v) != i {
			t.Fatalf("got[%d] = %d: duplicate or reorder under loss", i, v)
		}
	}
	if retx == 0 {
		t.Fatal("expected at least one retransmission at 30% loss")
	}
}

func TestVirtualSizeCarriesThrough(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var got Message
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			return
		}
		got, _ = conn.Recv()
	})
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		if err := conn.SendSized([]byte("descriptor"), 1_000_000); err != nil {
			t.Errorf("SendSized: %v", err)
		}
	})
	if string(got.Payload) != "descriptor" {
		t.Fatalf("payload = %q", got.Payload)
	}
	if got.Size != 1_000_000 {
		t.Fatalf("virtual size = %d, want 1000000", got.Size)
	}
}

func TestLargeMessageTimingDominatedBySize(t *testing.T) {
	pa := cleanProfile()
	pa.Bandwidth = 1e6
	pb := pa
	r := newRig(t, pa, pb, Options{})
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			return
		}
		conn.Recv()
	})
	var done time.Duration
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		conn.SendSized(nil, 5_000_000) // 5s at 1MB/s
		done = r.net.Scheduler().Elapsed()
	})
	if done < 5*time.Second || done > 6*time.Second {
		t.Fatalf("5MB send acked at %v, want ~5s", done)
	}
}

func TestSendFailsAfterRetriesExhausted(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	r.net.Partition("a", "b", true)
	var err error
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		err = conn.Send([]byte("x"))
	})
	if !errors.Is(err, ErrBroken) {
		t.Fatalf("Send on partitioned net = %v, want ErrBroken", err)
	}
}

func TestBrokenConnFailsSubsequentSends(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	r.net.Partition("a", "b", true)
	var err1, err2 error
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		err1 = conn.Send([]byte("x"))
		err2 = conn.Send([]byte("y"))
	})
	if !errors.Is(err1, ErrBroken) || !errors.Is(err2, ErrBroken) {
		t.Fatalf("errs = %v, %v; want ErrBroken both", err1, err2)
	}
}

func TestRecoveryAfterTransientPartition(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var got []string
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			return
		}
		for i := 0; i < 2; i++ {
			m, err := conn.Recv()
			if err != nil {
				return
			}
			got = append(got, string(m.Payload))
		}
	})
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		if err := conn.Send([]byte("one")); err != nil {
			t.Errorf("Send one: %v", err)
		}
		r.net.Partition("a", "b", true)
		// Heal while the retransmit loop is backing off.
		r.net.Scheduler().AfterFunc(2*time.Second, func() {
			r.net.Partition("a", "b", false)
		})
		if err := conn.Send([]byte("two")); err != nil {
			t.Errorf("Send two after heal: %v", err)
		}
	})
	if len(got) != 2 || got[0] != "one" || got[1] != "two" {
		t.Fatalf("got %v, want [one two]", got)
	}
}

func TestCloseDeliversFin(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var recvErr error
	var gotOne bool
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			return
		}
		if _, err := conn.Recv(); err == nil {
			gotOne = true
		}
		_, recvErr = conn.Recv()
	})
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		conn.Send([]byte("only"))
		conn.Close()
	})
	if !gotOne {
		t.Fatal("first message lost")
	}
	if !errors.Is(recvErr, ErrClosed) {
		t.Fatalf("Recv after FIN = %v, want ErrClosed", recvErr)
	}
}

func TestSendOnClosedConn(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var err error
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		conn.Close()
		err = conn.Send([]byte("x"))
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Send after Close = %v, want ErrClosed", err)
	}
}

func TestTwoConnsOverOneMux(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	got := map[string]string{}
	var gotMu sync.Mutex
	r.net.Scheduler().Go(func() {
		for i := 0; i < 2; i++ {
			conn, err := r.muxB.Accept()
			if err != nil {
				return
			}
			r.net.Scheduler().Go(func() {
				m, err := conn.Recv()
				if err != nil {
					return
				}
				gotMu.Lock()
				got[string(m.Payload)] = string(m.Payload)
				gotMu.Unlock()
			})
		}
	})
	r.net.Run(func() {
		c1, _ := r.muxA.Dial("b/pipe")
		c2, _ := r.muxA.Dial("b/pipe")
		if err := c1.Send([]byte("first")); err != nil {
			t.Errorf("c1: %v", err)
		}
		if err := c2.Send([]byte("second")); err != nil {
			t.Errorf("c2: %v", err)
		}
	})
	if len(got) != 2 {
		t.Fatalf("accepted %d distinct conns' messages, want 2: %v", len(got), got)
	}
}

func TestBidirectionalConversation(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var reply Message
	r.net.Scheduler().Go(func() {
		conn, err := r.muxB.Accept()
		if err != nil {
			return
		}
		m, err := conn.Recv()
		if err != nil {
			return
		}
		conn.Send(append([]byte("echo:"), m.Payload...))
	})
	r.net.Run(func() {
		conn, _ := r.muxA.Dial("b/pipe")
		if err := conn.Send([]byte("ping")); err != nil {
			t.Errorf("Send: %v", err)
			return
		}
		var err error
		reply, err = conn.Recv()
		if err != nil {
			t.Errorf("Recv reply: %v", err)
		}
	})
	if string(reply.Payload) != "echo:ping" {
		t.Fatalf("reply = %q", reply.Payload)
	}
}

// TestCallsOnExpiredConnReturnErrTimeout: once a conn's deadline fired,
// the Recv and the Send it cut short and every later call return
// ErrTimeout, not ErrClosed. The pending calls return at the deadline, once
// its FIN is on the wire.
func TestCallsOnExpiredConnReturnErrTimeout(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	r.muxB.Close() // b drops every frame: a Send to it is never acknowledged
	s := r.net.Scheduler()
	for _, pending := range []string{"Recv", "Send"} {
		var errs []error
		var waited time.Duration
		r.net.Run(func() {
			conn, err := r.muxA.Dial("b/pipe")
			if err != nil {
				t.Error(err)
				return
			}
			defer conn.Close()
			conn.CloseAfter(time.Second)
			began := s.Elapsed()
			if pending == "Recv" {
				_, err = conn.Recv()
			} else {
				err = conn.Send([]byte("ping"))
			}
			waited = s.Elapsed() - began
			_, recvErr := conn.Recv()
			errs = append(errs, err, recvErr, conn.Send([]byte("late")))
		})
		for i, err := range errs {
			if !errors.Is(err, ErrTimeout) {
				t.Errorf("pending %s: call %d returned %v, want ErrTimeout", pending, i, err)
			}
		}
		if waited < time.Second || waited > time.Second+time.Millisecond {
			t.Errorf("pending %s returned after %v, want the deadline's 1s and a FIN's serialization", pending, waited)
		}
	}
}

func TestWindowedPipeIsFasterThanStopAndWait(t *testing.T) {
	run := func(window int) time.Duration {
		pa := cleanProfile()
		pa.LatencyOneWay = 50 * time.Millisecond
		r := newRig(t, pa, pa, Options{Window: window})
		const n = 20
		r.net.Scheduler().Go(func() {
			conn, err := r.muxB.Accept()
			if err != nil {
				return
			}
			for i := 0; i < n; i++ {
				if _, err := conn.Recv(); err != nil {
					return
				}
			}
		})
		r.net.Run(func() {
			conn, _ := r.muxA.Dial("b/pipe")
			// Join through a scheduler-aware queue: blocking on a raw Go
			// channel would freeze the virtual clock.
			done := vtime.NewQueue(r.net.Scheduler())
			for w := 0; w < 4; w++ {
				w := w
				r.net.Scheduler().Go(func() {
					for i := w; i < n; i += 4 {
						conn.Send([]byte{byte(i)})
					}
					done.Push(struct{}{})
				})
			}
			for w := 0; w < 4; w++ {
				done.Pop()
			}
		})
		return r.net.Scheduler().Elapsed()
	}
	// NOTE: concurrent senders block on the window token queue; with W=1
	// each message still costs a full RTT, with W=4 four overlap.
	slow := run(1)
	fast := run(4)
	if fast >= slow {
		t.Fatalf("window=4 (%v) not faster than window=1 (%v)", fast, slow)
	}
}

func TestAcceptAfterMuxCloseFails(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var err error
	r.net.Run(func() {
		r.muxB.Close()
		_, err = r.muxB.Accept()
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Accept after Close = %v, want ErrClosed", err)
	}
}

func TestDialAfterMuxCloseFails(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	var err error
	r.net.Run(func() {
		r.muxA.Close()
		_, err = r.muxA.Dial("b/pipe")
	})
	if !errors.Is(err, ErrClosed) {
		t.Fatalf("Dial after Close = %v, want ErrClosed", err)
	}
}

// TestMuxCloseWakesConnsInKeyOrder closes a mux under conns of every kind —
// dialed to two peers, and accepted — each with a process parked in Recv,
// and demands that the processes wake in (peer, theirs, id) order on every
// run: the order a closing client's flows fail in reaches every result.
func TestMuxCloseWakesConnsInKeyOrder(t *testing.T) {
	const dials, accepts, reps = 12, 3, 20
	var want []string
	for id := 1; id <= dials; id += 2 {
		want = append(want, fmt.Sprintf("b/pipe/ours/%d", id))
	}
	for id := 1; id <= accepts; id++ {
		want = append(want, fmt.Sprintf("b/pipe/theirs/%d", id))
	}
	for id := 2; id <= dials; id += 2 {
		want = append(want, fmt.Sprintf("c/pipe/ours/%d", id))
	}
	for rep := 0; rep < reps; rep++ {
		r := newRig(t, cleanProfile(), cleanProfile(), Options{})
		var woke []string
		park := func(conn Conn, label string) {
			r.net.Scheduler().Go(func() {
				if _, err := conn.Recv(); err == nil {
					t.Errorf("%s: Recv succeeded on a closing mux", label)
				}
				woke = append(woke, label)
			})
		}
		r.net.Run(func() {
			for id := 1; id <= dials; id++ {
				peer := "b/pipe"
				if id%2 == 0 {
					peer = "c/pipe" // never sent to: a dial is local until its first send
				}
				conn, err := r.muxA.Dial(transport.Addr(peer))
				if err != nil {
					t.Error(err)
					return
				}
				park(conn, fmt.Sprintf("%s/ours/%d", peer, id))
			}
			for id := 1; id <= accepts; id++ {
				out, err := r.muxB.Dial("a/pipe")
				if err == nil {
					err = out.Send([]byte{byte(id)})
				}
				var in Conn
				if err == nil {
					in, err = r.muxA.Accept()
				}
				if err == nil {
					_, err = in.Recv()
				}
				if err != nil {
					t.Errorf("accepted conn %d: %v", id, err)
					return
				}
				park(in, fmt.Sprintf("b/pipe/theirs/%d", id))
			}
			r.net.Scheduler().Sleep(time.Millisecond) // every Recv parks
			r.muxA.Close()
		})
		if fmt.Sprint(woke) != fmt.Sprint(want) {
			t.Fatalf("rep %d: woke %v, want key order %v", rep, woke, want)
		}
	}
}

func TestStressManyConnsManyMessagesUnderLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	r := lossyRig(t, 0.15, Options{})
	const conns = 8
	const msgs = 12
	results := make([][]byte, conns)
	r.net.Scheduler().Go(func() {
		for i := 0; i < conns; i++ {
			conn, err := r.muxB.Accept()
			if err != nil {
				return
			}
			r.net.Scheduler().Go(func() {
				for {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					idx := int(m.Payload[0])
					results[idx] = append(results[idx], m.Payload[1])
				}
			})
		}
	})
	r.net.Run(func() {
		done := vtime.NewQueue(r.net.Scheduler())
		for ci := 0; ci < conns; ci++ {
			ci := ci
			r.net.Scheduler().Go(func() {
				conn, err := r.muxA.Dial("b/pipe")
				if err != nil {
					done.Push(err)
					return
				}
				for mi := 0; mi < msgs; mi++ {
					if err := conn.Send([]byte{byte(ci), byte(mi)}); err != nil {
						done.Push(fmt.Errorf("conn %d msg %d: %w", ci, mi, err))
						return
					}
				}
				done.Push(nil)
			})
		}
		for i := 0; i < conns; i++ {
			v, _ := done.Pop()
			if err, ok := v.(error); ok && err != nil {
				t.Error(err)
			}
		}
	})
	for ci, seq := range results {
		if len(seq) != msgs {
			t.Fatalf("conn %d delivered %d msgs, want %d", ci, len(seq), msgs)
		}
		for mi, v := range seq {
			if int(v) != mi {
				t.Fatalf("conn %d msg[%d] = %d: order violated", ci, mi, v)
			}
		}
	}
}
