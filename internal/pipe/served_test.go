package pipe

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
	"time"

	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/vtime"
	"peerlab/internal/wire"
)

// answerOrder scripts a raw peer a against a mux on b whose conns answer
// every message, with Send from a process of their own per accepted conn or
// with Post from their served inboxes, and returns the answers a saw, in
// arrival order, with their instants. Links are fast enough that frames
// sent together land at one instant, in one dispatch turn. a opens conns 1
// and 2 with a question each, acknowledges conn 2's answer only, and then
// sends at once a second question on conn 1, one on conn 2 and the ack of
// conn 1's first answer. Conn 1's second question arrives while its answer
// is outstanding, so conn 1 may answer it only once that ack lands: after
// conn 2, whose question came first, has answered.
func answerOrder(t *testing.T, posted bool) []string {
	n := simnet.New(1)
	prof := simnet.DefaultProfile()
	prof.Bandwidth = 1e15
	a, b := n.MustAddNode("a", prof), n.MustAddNode("b", prof)
	epA, errA := a.Endpoint("pipe")
	epB, errB := b.Endpoint("pipe")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	raw := &Mux{ep: epA}
	send := func(kind byte, id, seq, ack uint64, payload []byte) {
		if err := raw.sendFrame("b/pipe", kind, true, id, seq, ack, payload, len(payload)); err != nil {
			t.Error(err)
		}
	}
	var got []string
	epA.Serve(func(m transport.Message) {
		d := wire.NewDecoder(m.Payload)
		if kind, _, id := d.Byte(), d.Bool(), d.Uint64(); kind == kindData {
			got = append(got, fmt.Sprintf("%v conn %d seq %d", n.Now().Sub(vtime.Epoch), id, d.Uint64()))
		}
	})

	answer := []byte("answer")
	var opts Options
	if posted {
		h := func(conn Conn, ev Event) {
			switch {
			case ev.Posted && ev.Err == nil:
			case ev.Posted || ev.Err != nil || conn.Post(answer) != nil:
				conn.Close()
			}
		}
		opts.Serve = func(Conn) Handler { return handlerFunc(h) }
	}
	muxB, s := NewMux(b, epB, opts), n.Scheduler()
	if !posted {
		s.Go(func() {
			for {
				conn, err := muxB.Accept()
				if err != nil {
					return
				}
				s.Go(func() {
					defer conn.Close()
					for {
						if _, err := conn.Recv(); err != nil || conn.Send(answer) != nil {
							return
						}
					}
				})
			}
		})
	}
	n.Run(func() {
		send(kindData, 1, 1, 0, []byte("q1"))
		send(kindData, 2, 1, 0, []byte("q1"))
		a.Sleep(300 * time.Millisecond) // both answers are in, well inside their RTO
		send(kindAck, 2, 0, 1, nil)
		a.Sleep(300 * time.Millisecond)
		send(kindData, 1, 2, 0, []byte("q2"))
		send(kindData, 2, 2, 0, []byte("q2"))
		send(kindAck, 1, 0, 1, nil)
		a.Sleep(300 * time.Millisecond)
		send(kindAck, 1, 0, 2, nil)
		send(kindAck, 2, 0, 2, nil)
	})
	return got
}

// TestPostAnswersWhereSendWould holds a served conn answering with Post to
// the frames of a conn answering with Send from a process of its own: a
// message that arrives while a Post is outstanding waits for the Post's
// completion, which wakes the handler in the ring slot where Send would
// have returned, not in the earlier slot of that message.
func TestPostAnswersWhereSendWould(t *testing.T) {
	sent, posted := answerOrder(t, false), answerOrder(t, true)
	if len(sent) != 4 || !strings.HasSuffix(sent[2], "conn 2 seq 2") || !strings.HasSuffix(sent[3], "conn 1 seq 2") {
		t.Fatalf("the Send answers are not the scripted ones: %q", sent)
	}
	if !reflect.DeepEqual(sent, posted) {
		t.Fatalf("answers a saw:\n Send %q\n Post %q", sent, posted)
	}
}

// ackDuringResend answers a question on a slow link, lets the answer's ack
// land while its retransmission is still being serialized, and returns the
// instant the answering side learned the answer was acknowledged: where Send
// returned, or where the Post's completion was handed.
func ackDuringResend(t *testing.T, posted bool) time.Duration {
	n := simnet.New(1)
	prof := simnet.DefaultProfile()
	prof.Bandwidth = 1000 // a 1000-byte answer takes a second to serialize
	a, b := n.MustAddNode("a", prof), n.MustAddNode("b", prof)
	epA, errA := a.Endpoint("pipe")
	epB, errB := b.Endpoint("pipe")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	raw := &Mux{ep: epA}
	epA.Serve(func(transport.Message) {})
	answer := make([]byte, 1000)
	var done time.Duration
	var opts Options
	if posted {
		h := func(conn Conn, ev Event) {
			switch {
			case ev.Posted:
				done = n.Now().Sub(vtime.Epoch)
			case ev.Err == nil:
				conn.Post(answer)
			}
		}
		opts.Serve = func(Conn) Handler { return handlerFunc(h) }
	}
	muxB, s := NewMux(b, epB, opts), n.Scheduler()
	if !posted {
		s.Go(func() {
			conn, err := muxB.Accept()
			if err == nil && conn.Send(answer) == nil {
				done = n.Now().Sub(vtime.Epoch)
			}
		})
	}
	n.Run(func() {
		raw.sendFrame("b/pipe", kindData, true, 1, 1, 0, []byte("q"), 1)
		a.Sleep(3 * time.Second) // the answer is being sent again, from about 2.6 s to 3.6 s
		raw.sendFrame("b/pipe", kindAck, true, 1, 0, 1, nil, 0)
	})
	return done
}

// TestPostCompletesAfterItsAttempt: an ack that lands while a retransmission
// is still being serialized completes a Post only once that attempt is out,
// as Send returns only once its attempt's sendFrame has.
func TestPostCompletesAfterItsAttempt(t *testing.T) {
	sent, posted := ackDuringResend(t, false), ackDuringResend(t, true)
	if sent < 3500*time.Millisecond || posted != sent {
		t.Fatalf("acknowledged at %v with Send, %v with Post; want equal, after the retransmission's serialization", sent, posted)
	}
}
