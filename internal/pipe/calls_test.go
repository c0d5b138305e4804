package pipe

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"peerlab/internal/realnet"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
)

// callWorld is what echoCalls runs on: a calling host and mux, an echo
// host and mux, and drive, which runs fn to completion in the world.
type callWorld struct {
	a, b       transport.Host
	muxA, muxB *Mux
	drive      func(fn func())
	timeout    time.Duration // the deadline on one echo's Recv
	gap        time.Duration // bound on a closer's sleep between two closes
}

// callLog is what echoCalls saw: the calls that came back whole, and the
// messages whose Send returned nil and those the echo side read.
type callLog struct {
	whole       int
	acked, read map[string]bool
}

// echoCalls runs a seeded program of short calls: callers dial the echo
// service, send two messages tagged with caller, call and index, read the two
// echoes and close, while closers close whichever call a caller has open at
// random instants, or the call it last had open. It fails the test if a Recv
// returns another call's echo, or an accepted conn reads another call's
// message (a late frame of a closed conn reached a later one), and if a call
// fails with ErrClosed that no closer closed (a FIN that was not its own).
func echoCalls(t *testing.T, w callWorld, seed int64) callLog {
	t.Helper()
	const callers, calls, closers, closes = 4, 24, 2, 40
	type call struct{ caller, n int }
	msg := func(c call, i int) []byte { return []byte{byte(c.caller), byte(c.n), byte(i)} }
	var mu sync.Mutex
	open := make([]struct {
		n     int
		close func() error
	}, callers)
	closed := map[call]bool{}
	log := callLog{acked: map[string]bool{}, read: map[string]bool{}}

	w.b.Go(func() {
		for {
			conn, err := w.muxB.Accept()
			if err != nil {
				return
			}
			w.b.Go(func() {
				defer conn.Close()
				var first []byte
				echoing := true
				for i := 0; ; i++ {
					m, err := conn.Recv()
					if err != nil {
						return
					}
					mu.Lock()
					log.read[string(m.Payload)] = true
					mu.Unlock()
					if first == nil {
						first = m.Payload
					}
					if len(m.Payload) != 3 || !bytes.Equal(m.Payload[:2], first[:2]) || int(m.Payload[2]) != i {
						t.Errorf("an accepted conn read % x as message %d after % x", m.Payload, i, first)
					}
					// A failed echo ends echoing, not reading: whatever was
					// acknowledged is still read.
					echoing = echoing && conn.Send(m.Payload) == nil
				}
			})
		}
	})

	w.drive(func() {
		join := w.a.NewQueue()
		for k := 0; k < callers; k++ {
			w.a.Go(func() {
				defer join.Push(nil)
				for n := 0; n < calls; n++ {
					c := call{k, n}
					conn, err := w.muxA.Dial(w.muxB.Addr())
					if err != nil {
						t.Errorf("Dial: %v", err)
						return
					}
					mu.Lock()
					open[k].n, open[k].close = n, conn.Close
					mu.Unlock()
					err = func() error {
						for i := 0; i < 2; i++ {
							if err := conn.Send(msg(c, i)); err != nil {
								return err
							}
							mu.Lock()
							log.acked[string(msg(c, i))] = true
							mu.Unlock()
						}
						for i := 0; i < 2; i++ {
							conn.CloseAfter(w.timeout)
							m, err := conn.Recv()
							if err != nil {
								return err
							}
							if !bytes.Equal(m.Payload, msg(c, i)) {
								t.Errorf("call %v read echo % x, want % x", c, m.Payload, msg(c, i))
							}
						}
						return nil
					}()
					conn.Close()
					mu.Lock()
					if err == nil {
						log.whole++
					} else if errors.Is(err, ErrClosed) && !closed[c] {
						t.Errorf("call %v failed with %v, and no closer closed it", c, err)
					}
					mu.Unlock()
				}
			})
		}
		for j := 0; j < closers; j++ {
			rng := rand.New(rand.NewSource(seed + int64(j)))
			w.a.Go(func() {
				defer join.Push(nil)
				for i := 0; i < closes; i++ {
					w.a.Sleep(time.Duration(rng.Int63n(int64(w.gap))))
					k := rng.Intn(callers)
					mu.Lock()
					o := open[k]
					if o.close != nil {
						closed[call{k, o.n}] = true
					}
					mu.Unlock()
					if o.close != nil {
						o.close()
					}
				}
			})
		}
		for i := 0; i < callers+closers; i++ {
			join.Pop()
		}
	})
	return log
}

// checkCalls fails the test unless some calls came back whole and the
// closers cut some others.
func checkCalls(t *testing.T, log callLog) {
	t.Helper()
	const all = 4 * 24
	t.Logf("%d of %d calls whole", log.whole, all)
	if log.whole == 0 || log.whole == all {
		t.Fatalf("%d of %d calls whole: the closers should cut some calls, not all", log.whole, all)
	}
}

// TestCallsReadOnlyTheirOwnEchoes runs echoCalls on a simulated network
// losing a fifth of all frames, stop-and-wait and windowed. Once the world is
// quiet, every message whose Send returned nil has been read by the echo
// side: an ack reached no conn but its own.
func TestCallsReadOnlyTheirOwnEchoes(t *testing.T) {
	for _, window := range []int{1, 4} {
		t.Run(fmt.Sprintf("window=%d", window), func(t *testing.T) {
			n := simnet.New(int64(window))
			a, b := n.MustAddNode("a", lossyProfile(0.2)), n.MustAddNode("b", lossyProfile(0.2))
			epA, errA := a.Endpoint("pipe")
			epB, errB := b.Endpoint("pipe")
			if errA != nil || errB != nil {
				t.Fatal(errA, errB)
			}
			opts := Options{Window: window}
			log := echoCalls(t, callWorld{a: a, b: b, muxA: NewMux(a, epA, opts), muxB: NewMux(b, epB, opts),
				drive: n.Run, timeout: 30 * time.Second, gap: 2 * time.Second}, int64(window))
			checkCalls(t, log)
			for m := range log.acked {
				if !log.read[m] {
					t.Errorf("message % x was acknowledged, and the echo side never read it", m)
				}
			}
		})
	}
}

// TestCallsReadOnlyTheirOwnEchoesOverTCP runs echoCalls over realnet
// loopback, where callers, closers, the echo side and both muxes' readers
// are goroutines (run it under -race).
func TestCallsReadOnlyTheirOwnEchoesOverTCP(t *testing.T) {
	a, err := realnet.NewHost("alpha", "127.0.0.1:0", nil, 1)
	if err != nil {
		t.Fatal(err)
	}
	b, err := realnet.NewHost("beta", "127.0.0.1:0", nil, 2)
	if err != nil {
		t.Fatal(err)
	}
	a.SetRoute("beta", b.AddrOf())
	b.SetRoute("alpha", a.AddrOf())
	epA, errA := a.Endpoint("pipe")
	epB, errB := b.Endpoint("pipe")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	muxA, muxB := NewMux(a, epA, Options{}), NewMux(b, epB, Options{})
	t.Cleanup(func() { muxA.Close(); muxB.Close(); a.Close(); b.Close() })
	log := echoCalls(t, callWorld{a: a, b: b, muxA: muxA, muxB: muxB,
		drive: func(fn func()) { fn() }, timeout: 10 * time.Second, gap: 4 * time.Millisecond}, 1)
	checkCalls(t, log)
}

// TestHandleAfterCloseReadsClosed keeps a conn's handle past its Close and
// across later dials on the same mux: Send and Recv on it report ErrClosed,
// its Close does nothing, and each later conn carries its own messages only.
func TestHandleAfterCloseReadsClosed(t *testing.T) {
	r := newRig(t, cleanProfile(), cleanProfile(), Options{})
	r.net.Scheduler().Go(func() {
		for {
			conn, err := r.muxB.Accept()
			if err != nil {
				return
			}
			r.net.Scheduler().Go(func() {
				defer conn.Close()
				for {
					m, err := conn.Recv()
					if err != nil || conn.Send(m.Payload) != nil {
						return
					}
				}
			})
		}
	})
	r.net.Run(func() {
		echo := func(conn interface {
			Send([]byte) error
			Recv() (Message, error)
		}, s string) {
			t.Helper()
			if err := conn.Send([]byte(s)); err != nil {
				t.Errorf("Send %s: %v", s, err)
				return
			}
			if m, err := conn.Recv(); err != nil || string(m.Payload) != s {
				t.Errorf("echo of %s: %q, %v", s, m.Payload, err)
			}
		}
		old, err := r.muxA.Dial("b/pipe")
		if err != nil {
			t.Fatal(err)
		}
		echo(old, "old")
		old.Close()
		for i := 0; i < 3; i++ {
			conn, err := r.muxA.Dial("b/pipe")
			if err != nil {
				t.Fatal(err)
			}
			s := fmt.Sprint("new", i)
			echo(conn, s+"a")
			if err := old.Send([]byte("stale")); !errors.Is(err, ErrClosed) {
				t.Errorf("Send on a closed handle = %v, want ErrClosed", err)
			}
			if _, err := old.Recv(); !errors.Is(err, ErrClosed) {
				t.Errorf("Recv on a closed handle = %v, want ErrClosed", err)
			}
			if err := old.Close(); err != nil {
				t.Errorf("Close on a closed handle = %v", err)
			}
			echo(conn, s+"b")
			conn.Close()
		}
	})
}
