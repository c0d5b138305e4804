package pipe

import (
	"fmt"
	"testing"
)

// BenchmarkSend prices one acknowledged data message end to end — sender,
// both muxes, the simulated network and the receiver — at a small payload and
// a 16 KB one. A payload travels by reference, so B/op and allocs/op do not
// grow with its size.
func BenchmarkSend(b *testing.B) {
	for _, size := range []int{64, 16 << 10} {
		b.Run(fmt.Sprintf("payload=%d", size), func(b *testing.B) {
			r := newRig(b, cleanProfile(), cleanProfile(), Options{})
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
			payload := make([]byte, size)
			b.ReportAllocs()
			r.net.Run(func() {
				conn, err := r.muxA.Dial("b/pipe")
				if err != nil {
					b.Error(err)
					return
				}
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					if err := conn.Send(payload); err != nil {
						b.Error(err)
						return
					}
				}
				b.StopTimer()
			})
		})
	}
}

// BenchmarkShortConn prices one short conn on warm muxes: a dial, one message
// and its echo, and a Close on each side — a control RPC's shape.
func BenchmarkShortConn(b *testing.B) {
	b.ReportAllocs()
	shortConns(b, b.N)
}
