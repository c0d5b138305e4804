package transport

import "math/rand"

// The shape of math/rand's seeded generator: an additive lagged-Fibonacci
// register of randLen words read randTap apart, seeded by a MINSTD chain.
const (
	randLen = 607
	randTap = 273
	minstdA = 48271
	minstdM = 1<<31 - 1
)

var (
	// randPow[i] is minstdA^(21+3i) mod minstdM: the seeding chain runs 20
	// warm-up steps and three per register word, so one multiply jumps the
	// seed to word i's first step.
	randPow [randLen]uint64
	// randAdd[i] is the constant the seeding xors into word i, recovered
	// from one real source's first randLen outputs (see init).
	randAdd [randLen]uint64
)

// randWord is word i of the register math/rand seeds from x0, a normalised
// seed in [1, minstdM).
func randWord(x0 uint64, i int) uint64 {
	x := randPow[i] * x0 % minstdM
	u := x << 40
	x = x * minstdA % minstdM
	u ^= x << 20
	x = x * minstdA % minstdM
	return u ^ x ^ randAdd[i]
}

func init() {
	p := uint64(1)
	for i := 0; i < 21; i++ {
		p = p * minstdA % minstdM
	}
	for i := range randPow {
		randPow[i] = p
		p = p * minstdA % minstdM * minstdA % minstdM * minstdA % minstdM
	}
	// Draw k (from 1) returns reg[334-k] + reg[607-k] (indices mod 607) and
	// stores it at the first. Up to draw 273 both are seeded words; after
	// it the second is draw k-273's output. So the outputs give back the
	// seeded register, and with the MINSTD part xored out, the constants.
	var out, reg [randLen + 1]uint64
	src := rand.NewSource(1).(rand.Source64)
	for k := 1; k <= randLen; k++ {
		out[k] = src.Uint64()
	}
	for k := randTap + 1; k <= randLen; k++ {
		reg[(randLen+334-k)%randLen] = out[k] - out[k-randTap]
	}
	for k := 1; k <= randTap; k++ {
		reg[334-k] = out[k] - reg[randLen-k]
	}
	for i := range randAdd {
		randAdd[i] = reg[i] ^ randWord(1, i)
	}
}

// lazySource is math/rand's seeded stream without the seeding: the first
// randTap draws read only seeded words, which randWord computes from the
// seed alone, and the draw after them seeds a real source and hands over.
type lazySource struct {
	x0    uint64 // the seed as math/rand normalises it
	drawn int    // draws served so far, while real is nil
	real  rand.Source64
}

func (s *lazySource) Seed(seed int64) {
	seed %= minstdM
	if seed < 0 {
		seed += minstdM
	}
	if seed == 0 {
		seed = 89482311
	}
	*s = lazySource{x0: uint64(seed)}
}

func (s *lazySource) Uint64() uint64 {
	if s.real == nil {
		if s.drawn < randTap {
			s.drawn++
			return randWord(s.x0, randLen-randTap-s.drawn) + randWord(s.x0, randLen-s.drawn)
		}
		s.real = rand.NewSource(int64(s.x0)).(rand.Source64)
		for i := 0; i < randTap; i++ {
			s.real.Uint64()
		}
	}
	return s.real.Uint64()
}

func (s *lazySource) Int63() int64 { return int64(s.Uint64() &^ (1 << 63)) }

// NewRand returns math/rand's seeded Rand, draw for draw and through Seed,
// at none of its cost for a stream that stays short: math/rand seeds
// 607 words (4.9 KB, ~12 µs) before the first draw, and nearly every stream
// a simulation makes — one per peer, flow, site and node — draws a handful
// of values. Here a stream costs two small objects until its 274th draw and
// one real source from then on. The threshold is the generator's lag, not a
// tunable: past it a draw reads an earlier draw's output. Every seeded
// stream in the repository comes from this constructor.
func NewRand(seed int64) *rand.Rand {
	s := new(lazySource)
	s.Seed(seed)
	return rand.New(s)
}
