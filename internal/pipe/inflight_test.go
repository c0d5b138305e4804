package pipe

import (
	"bytes"
	"errors"
	"fmt"
	"testing"
	"time"

	"peerlab/internal/simnet"
	"peerlab/internal/transport"
)

// TestOverlappingSendsWakeInSeqOrder parks four overlapping sends on one
// Window: 4 conn whose acks cannot get back, and checks that the senders wake
// in ascending seq: once when a healed path lets one cumulative ack release
// all four, and once when Close tears the conn down under them.
func TestOverlappingSendsWakeInSeqOrder(t *testing.T) {
	for _, byClose := range []bool{false, true} {
		t.Run(fmt.Sprintf("close=%v", byClose), func(t *testing.T) {
			const senders = 4
			r := newRig(t, cleanProfile(), cleanProfile(), Options{Window: senders})
			r.net.Partition("b", "a", true) // data gets through, acks do not
			var seqOrder []byte             // senders as the receiver saw their seqs
			r.net.Scheduler().Go(func() {
				conn, err := r.muxB.Accept()
				if err != nil {
					t.Errorf("Accept: %v", err)
					return
				}
				for i := 0; i < senders; i++ {
					m, err := conn.Recv()
					if err != nil {
						t.Errorf("Recv %d: %v", i, err)
						return
					}
					seqOrder = append(seqOrder, m.Payload[0])
				}
			})
			var woke []byte
			var wokeAt []time.Duration
			r.net.Run(func() {
				conn, err := r.muxA.Dial("b/pipe")
				if err != nil {
					t.Error(err)
					return
				}
				for i := 0; i < senders; i++ {
					r.net.Scheduler().Go(func() {
						err := conn.Send([]byte{byte(i)})
						switch {
						case byClose && !errors.Is(err, ErrClosed):
							t.Errorf("sender %d: %v, want ErrClosed", i, err)
						case !byClose && err != nil:
							t.Errorf("sender %d: %v", i, err)
						}
						woke = append(woke, byte(i))
						wokeAt = append(wokeAt, r.net.Scheduler().Elapsed())
					})
				}
				r.net.Scheduler().Sleep(100 * time.Millisecond) // all four parked, none acked
				if len(woke) != 0 || len(seqOrder) != senders {
					t.Errorf("before release: %d senders woke, %d messages received", len(woke), len(seqOrder))
				}
				if byClose {
					conn.Close()
				} else {
					r.net.Partition("b", "a", false) // the first retransmit's ack covers all four
				}
			})
			if fmt.Sprint(woke) != fmt.Sprint(seqOrder) {
				t.Fatalf("senders woke in order %v, want seq order %v", woke, seqOrder)
			}
			for _, at := range wokeAt {
				if at != wokeAt[0] {
					t.Fatalf("senders woke at %v: not released together", wokeAt)
				}
			}
		})
	}
}

// recordingEndpoint keeps every frame its mux sends, so a test can replay one
// byte for byte through the endpoint underneath. It copies each head, which
// the sender may reuse once SendFrame returns; a body is kept by reference.
type recordingEndpoint struct {
	transport.Endpoint
	frames []sentFrame
}

type sentFrame struct {
	to         transport.Addr
	head, body []byte
	size       int
}

func (e *recordingEndpoint) SendFrame(to transport.Addr, head, body []byte, size int) error {
	e.frames = append(e.frames, sentFrame{to, bytes.Clone(head), body, size})
	return e.Endpoint.SendFrame(to, head, body, size)
}

// TestLateDataAfterCloseIsDropped runs request/reply exchanges dialed from a
// to b, closes both ends of each, and then replays a's data frames, header
// and all, onto b's torn-down accepted conns: b must drop them as stale
// rather than surface a new conn to Accept. Only b keeps tombstones: a late
// frame for a conn its receiver dialed is dropped without one.
func TestLateDataAfterCloseIsDropped(t *testing.T) {
	const exchanges = 3
	n := simnet.New(7)
	a := n.MustAddNode("a", cleanProfile())
	b := n.MustAddNode("b", cleanProfile())
	epA, err := a.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	rec := &recordingEndpoint{Endpoint: epA}
	accepted := 0
	muxA, muxB := NewMux(a, rec, Options{}), NewMux(b, epB, Options{Serve: func(Conn) Handler {
		accepted++
		return handlerFunc(func(c Conn, ev Event) {
			defer c.Close()
			if ev.Err == nil {
				c.Send(ev.Msg.Payload)
			}
		})
	}})
	var delivered [2]int64
	n.Run(func() {
		for i := 0; i < exchanges; i++ {
			c, err := muxA.Dial(epB.Addr())
			if err == nil {
				err = c.Send([]byte{byte(i)})
			}
			if err == nil {
				_, err = c.Recv()
			}
			if err != nil {
				t.Errorf("exchange %d: %v", i, err)
				return
			}
			c.Close()
		}
		a.Sleep(time.Second) // every FIN has landed
		_, delivered[0], _ = n.Stats()
		for _, f := range rec.frames {
			if f.head[0] == kindData {
				epA.SendFrame(f.to, f.head, f.body, f.size)
			}
		}
		a.Sleep(time.Second)
		_, delivered[1], _ = n.Stats()
	})
	if a, b := tombstones(muxA), tombstones(muxB); a != 0 || b != exchanges {
		t.Fatalf("tombstones: a holds %d, b %d; want 0 and %d", a, b, exchanges)
	}
	if accepted != exchanges || len(muxB.conns) != 0 {
		t.Fatalf("b accepted %d conns for %d exchanges and holds %d: late data surfaced a conn", accepted, exchanges, len(muxB.conns))
	}
	if got := delivered[1] - delivered[0]; got != exchanges {
		t.Fatalf("%d replayed frames reached b, want %d", got, exchanges)
	}
}

// tombstones counts the conn ids m holds tombstones for.
func tombstones(m *Mux) (n uint64) {
	for _, ids := range m.dead {
		spans := ids.more
		if spans == nil {
			spans = []span{ids.one}
		}
		for _, sp := range spans {
			n += sp.n
		}
	}
	return n
}
