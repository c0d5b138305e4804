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
// wake lag or degradation). Each end carries a loss rate (SetExtraLoss), and
// every frame, data a→b or ack b→a, is lost with the two rates' sum p. An
// attempt is acknowledged when both arrive, with probability s = (1−p)²,
// independently of the attempts before it: a message is sent alone on its
// conn, so no later ack covers it, and the retransmission timeout outlasts
// the round trip, so no attempt is cut short. The retransmissions of an
// acknowledged message are then geometric, cut at MaxAttempts = m:
//
//	mean f/s − m·f^m/(1−f^m), where f = 1 − s
//
// Over random (rates ≤ 0.15 a side, so p ≤ 0.3, L, B, S), the mean over
// 20 000 messages (2 000 under -short) must lie within four standard errors
// of it, the standard error taken from the uncut geometric's variance f/s²,
// which bounds the cut one's: at most 0.042 retransmissions. A message that
// exhausts its attempts breaks its conn; it is not counted, and the next
// message dials a new one.
func TestLossyLinkRetransmissionsClosedForm(t *testing.T) {
	n := 20000
	if testing.Short() {
		n = 2000
	}
	rng := rand.New(rand.NewSource(48))
	for trial := 0; trial < 12; trial++ {
		end := func() (simnet.Profile, float64) {
			return simnet.Profile{
				LatencyOneWay: time.Duration(rng.Int63n(int64(150 * time.Millisecond))),
				Bandwidth:     2*MinRate + rng.Float64()*50e6,
				CPUScore:      1,
			}, rng.Float64() * 0.15
		}
		pa, la := end()
		pb, lb := end()
		size := 100 + rng.Intn(4000)
		r := newRig(t, pa, pb, Options{Serve: func(Conn) Handler { return handlerFunc(func(Conn, Event) {}) }})
		r.net.SetExtraLoss("a", la)
		r.net.SetExtraLoss("b", lb)
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

		p := la + lb
		s := (1 - p) * (1 - p)
		f, m := 1-s, float64(MaxAttempts)
		want := f/s - m*math.Pow(f, m)/(1-math.Pow(f, m))
		got := float64(retx) / float64(n)
		tol := 4 * math.Sqrt(f/(s*s)/float64(n))
		if math.Abs(got-want) > tol {
			t.Errorf("trial %d: frame loss %.3f (%.3f + %.3f), %d B over %v and %v: %.4f retransmissions per acknowledged message, closed form %.4f ± %.4f (%d broken)",
				trial, p, la, lb, size, pa.LatencyOneWay, pb.LatencyOneWay, got, want, tol, broken)
		}
	}
}
