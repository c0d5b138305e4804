package pipe

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"peerlab/internal/simnet"
)

// TestLossyLinkRetransmissionsClosedForm holds pipe's loss recovery to the
// loss simnet applies, on a link that is clean but for it (no jitter, MTBF,
// wake lag or degradation). Every frame is lost with the LossRate of the node
// it goes to: a data frame a→b with p = b's, its ack b→a with q = a's. An
// attempt is acknowledged when both arrive, with probability s = (1−p)(1−q),
// independently of the attempts before it: a message is sent alone on its
// conn, so no later ack covers it, and the retransmission timeout outlasts
// the round trip, so no attempt is cut short. The retransmissions of an
// acknowledged message are then geometric, cut at MaxAttempts = m:
//
//	mean f/s − m·f^m/(1−f^m), where f = 1 − s
//
// which is p/(1−p) when only data frames are lost and m is large. Over random
// (p, q ≤ 0.3, L, B, S), the mean over 20 000 messages (2 000 under -short)
// must lie within four standard errors of it, the standard error taken from
// the uncut geometric's variance f/s², which bounds the cut one's: at most
// 0.042 retransmissions. A message that exhausts its attempts breaks its
// conn; it is not counted, and the next message dials a new one.
func TestLossyLinkRetransmissionsClosedForm(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 12; trial++ {
		end := func() simnet.Profile {
			return simnet.Profile{
				LatencyOneWay: time.Duration(rng.Int63n(int64(150 * time.Millisecond))),
				Bandwidth:     2*MinRate + rng.Float64()*50e6,
				LossRate:      rng.Float64() * 0.3,
				CPUScore:      1,
			}
		}
		pa, pb := end(), end()
		size := 100 + rng.Intn(4000)
		r := newRig(t, pa, pb, Options{Serve: func(Conn) Handler { return handlerFunc(func(Conn, Event) {}) }})
		var retx, broken int64
		r.net.Run(func() {
			var conn Conn
			payload := make([]byte, size)
			for acked := 0; acked < n; {
				if conn.c == nil {
					var err error
					if conn, err = r.muxA.Dial("b/pipe"); err != nil {
						t.Errorf("trial %d: dial: %v", trial, err)
						return
					}
				}
				before := conn.Retransmissions()
				if err := conn.Send(payload); err != nil {
					broken++
					conn.Close()
					conn = Conn{}
					continue
				}
				retx += conn.Retransmissions() - before
				acked++
			}
			conn.Close()
		})

		s := (1 - pb.LossRate) * (1 - pa.LossRate)
		f, m := 1-s, float64(MaxAttempts)
		want := f/s - m*math.Pow(f, m)/(1-math.Pow(f, m))
		got := float64(retx) / float64(n)
		tol := 4 * math.Sqrt(f/(s*s)/float64(n))
		if math.Abs(got-want) > tol {
			t.Errorf("trial %d: data loss %.3f, ack loss %.3f, %d B over %v and %v: %.4f retransmissions per acknowledged message, closed form %.4f ± %.4f (%d broken)",
				trial, pb.LossRate, pa.LossRate, size, pa.LatencyOneWay, pb.LatencyOneWay, got, want, tol, broken)
		}
	}
}
