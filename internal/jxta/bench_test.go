package jxta

import (
	"fmt"
	"testing"
	"time"
)

// filledCache returns a cache holding n peer advertisements named the way
// the synthetic scenarios name their hosts, and the advertisements.
func filledCache(n int) (*Cache, []Advertisement) {
	clock, _ := clockAt(base)
	c := NewCache(2*n, clock)
	advs := make([]Advertisement, n)
	for i := range advs {
		name := fmt.Sprintf("n%05d.uniform.slice.peerlab", i)
		advs[i] = Advertisement{Kind: AdvPeer, ID: NewID("peer", name), Name: name, Addr: name + "/transfer",
			Expires: base.Add(time.Hour), Attrs: []Attr{{AttrCPUScore, "1.5"}}}
		c.Publish(advs[i])
	}
	return c, advs
}

// directorySizes are the benchmarks' directory sizes: a kilopeer broker and
// the 16k scale point.
var directorySizes = []int{1 << 10, 1 << 14}

// BenchmarkNamedQuery prices one named Query, cycling through the
// directory's names. The named branch is kept only because the repository
// benchmark times it (jxta.lookup_ns); it goes with that probe.
func BenchmarkNamedQuery(b *testing.B) {
	for _, n := range directorySizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			c, advs := filledCache(n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if got := c.Query(AdvPeer, advs[i*7919%n].Name); len(got) != 1 {
					b.Fatalf("named query returned %d entries", len(got))
				}
			}
		})
	}
}

// BenchmarkRenewThenQueryAll prices one lease renewal followed by a read of
// the whole directory into a warm buffer — a heartbeat, then the broker's
// merge reading the directory it changed.
func BenchmarkRenewThenQueryAll(b *testing.B) {
	for _, n := range directorySizes {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			c, advs := filledCache(n)
			buf := c.AppendAll(nil)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				a := advs[i*7919%n]
				a.Expires = base.Add(time.Hour + time.Duration(i))
				c.Publish(a)
				if buf = c.AppendAll(buf[:0]); len(buf) != n {
					b.Fatalf("whole read returned %d of %d entries", len(buf), n)
				}
			}
		})
	}
}
