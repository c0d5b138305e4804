package transport

import (
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"testing"
)

// sameDraws drives got and want through n draws chosen by mix — a byte per
// draw, cycled, picking among every Rand method that reaches the source a
// different way, Seed included — and reports the first disagreement.
func sameDraws(got, want *rand.Rand, n int, mix []byte) error {
	if len(mix) == 0 {
		mix = []byte{0}
	}
	for i := 0; i < n; i++ {
		var g, w any
		op := mix[i%len(mix)]
		switch op % 12 {
		case 0:
			g, w = got.Int63(), want.Int63()
		case 1:
			g, w = got.Uint64(), want.Uint64()
		case 2:
			g, w = got.Float64(), want.Float64()
		case 3:
			g, w = got.Int63n(int64(i)<<20+3), want.Int63n(int64(i)<<20+3)
		case 4:
			g, w = got.Intn(i+7), want.Intn(i+7)
		case 5:
			g, w = fmt.Sprint(got.Perm(5)), fmt.Sprint(want.Perm(5))
		case 6:
			a, b := [4]int{0, 1, 2, 3}, [4]int{0, 1, 2, 3}
			got.Shuffle(4, func(i, j int) { a[i], a[j] = a[j], a[i] })
			want.Shuffle(4, func(i, j int) { b[i], b[j] = b[j], b[i] })
			g, w = a, b
		case 7:
			g, w = got.NormFloat64(), want.NormFloat64()
		case 8:
			g, w = got.ExpFloat64(), want.ExpFloat64()
		case 9:
			var a, b [11]byte
			got.Read(a[:])
			want.Read(b[:])
			g, w = a, b
		case 10:
			g, w = got.Uint32(), want.Uint32()
		case 11:
			if op != 11 { // re-seeding on 1 byte value in 256, so runs reach the promotion between them
				g, w = got.Int31n(int32(i)+9), want.Int31n(int32(i)+9)
				break
			}
			seed := int64(uint64(i)*0x9e3779b97f4a7c15) ^ int64(len(mix))
			got.Seed(seed)
			want.Seed(seed)
		}
		if g != w {
			return fmt.Errorf("draw %d (method %d): got %v, math/rand gives %v", i, op%12, g, w)
		}
	}
	return nil
}

// randSeeds is at least 300 seeds: the edges of math/rand's seed
// normalisation (mod 2^31-1, negative wrapped, 0 replaced by 89482311) and
// a spread of ordinary ones.
func randSeeds() []int64 {
	seeds := []int64{0, 1, -1, 2, 89482311, -89482311, 1<<31 - 1, -(1<<31 - 1), 1 << 31, -(1 << 31), 1<<31 - 2,
		1<<32 - 2, 1 << 62, -(1 << 62), math.MaxInt64, math.MinInt64, math.MaxInt64 - 1, math.MinInt64 + 1, 2 * (1<<31 - 1), 2007}
	r := rand.New(rand.NewSource(42))
	for len(seeds) < 320 {
		seeds = append(seeds, int64(r.Uint64())>>uint(r.Intn(64)))
	}
	return seeds
}

// TestNewRandMatchesMathRand: NewRand(seed) is rand.New(rand.NewSource(seed))
// bit for bit, for every method, across the promotion at draw 274 and across
// Seed, on every seed-normalisation edge.
func TestNewRandMatchesMathRand(t *testing.T) {
	mixes := [][]byte{{0}, {1}, {2, 3, 4, 5, 6}, {0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 23}}
	long := make([]byte, 700) // one Seed every 700 draws: before it, a promoted stream; after it, a lazy one again
	for i := range long {
		long[i] = byte(i % 11)
	}
	long[699] = 11
	mixes = append(mixes, long)
	for i, seed := range randSeeds() {
		if err := sameDraws(NewRand(seed), rand.New(rand.NewSource(seed)), 1500, mixes[i%len(mixes)]); err != nil {
			t.Errorf("seed %d, mix %d: %v", seed, i%len(mixes), err)
		}
	}
	// The raw stream on its own, either side of the lag.
	for _, seed := range randSeeds()[:40] {
		got, want := NewRand(seed), rand.NewSource(seed).(rand.Source64)
		for k := 1; k <= 2*randLen; k++ {
			if g, w := got.Uint64(), want.Uint64(); g != w {
				t.Fatalf("seed %d: draw %d is %#x, math/rand gives %#x", seed, k, g, w)
			}
		}
	}
}

// FuzzNewRandMatchesMathRand is the same property over (seed, draw count,
// method mix); its seed corpus runs under plain `go test`.
func FuzzNewRandMatchesMathRand(f *testing.F) {
	f.Add(int64(0), uint16(300), []byte{0})
	f.Add(int64(1), uint16(273), []byte{1})
	f.Add(int64(1), uint16(274), []byte{1})
	f.Add(int64(math.MinInt64), uint16(1500), []byte{2, 3, 4, 5, 6})
	f.Add(int64(1<<31-1), uint16(900), []byte{9, 5, 11, 7, 8})
	f.Add(int64(-89482311), uint16(2000), []byte{0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 23})
	f.Fuzz(func(t *testing.T, seed int64, n uint16, mix []byte) {
		if err := sameDraws(NewRand(seed), rand.New(rand.NewSource(seed)), int(n)%4096, mix); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	})
}

// streamCost reports the allocations and heap bytes of making one stream and
// drawing n values from it.
func streamCost(n int) (allocs float64, bytes uint64) {
	stream := func() {
		r := NewRand(int64(n) + 1)
		for i := 0; i < n; i++ {
			r.Int63()
		}
	}
	allocs = testing.AllocsPerRun(100, stream)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < 100; i++ {
		stream()
	}
	runtime.ReadMemStats(&after)
	return allocs, (after.TotalAlloc - before.TotalAlloc) / 100
}

// TestSeededStreamAllocBudget: a stream that stays within the generator's
// lag is two small objects (the Rand and its source); one that draws past it
// pays exactly one math/rand source on top, whatever it draws afterwards.
func TestSeededStreamAllocBudget(t *testing.T) {
	for _, n := range []int{0, 1, 16, randTap} {
		if allocs, bytes := streamCost(n); allocs > 2 || bytes > 128 {
			t.Errorf("a stream of %d draws: %v allocations, %d B; budget 2 and 128 B", n, allocs, bytes)
		}
	}
	real := testing.AllocsPerRun(100, func() { rand.NewSource(1) })
	for _, n := range []int{randTap + 1, 5000} {
		if allocs, _ := streamCost(n); allocs != 2+real {
			t.Errorf("a stream of %d draws: %v allocations, want 2 and one rand.NewSource (%v)", n, allocs, real)
		}
	}
}

// BenchmarkNewRand prices a whole stream — constructor plus its draws — at
// the lengths a run makes: nearly all streams draw once or a handful of
// times, a few pass the lag. mathrand is the constructor it replaced.
func BenchmarkNewRand(b *testing.B) {
	for _, mk := range []struct {
		name string
		new  func(int64) *rand.Rand
	}{
		{"lazy", NewRand},
		{"mathrand", func(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }},
	} {
		for _, draws := range []int{1, 16, 300} {
			b.Run(fmt.Sprintf("%s/draws=%d", mk.name, draws), func(b *testing.B) {
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				b.ResetTimer()
				var sink int64
				for i := 0; i < b.N; i++ {
					r := mk.new(int64(i))
					for k := 0; k < draws; k++ {
						sink += r.Int63()
					}
				}
				b.StopTimer()
				runtime.ReadMemStats(&after)
				_ = sink
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N), "ns/stream")
				b.ReportMetric(float64(after.TotalAlloc-before.TotalAlloc)/float64(b.N), "B/stream")
			})
		}
	}
}
