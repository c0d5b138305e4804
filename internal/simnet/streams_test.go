package simnet

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"math"
	"math/rand"
	"testing"
)

// streamDigest hashes 600 mixed draws from r — Float64, Int63n, Intn, Perm
// and Shuffle in turn — so a digest pins the stream well past the
// generator's lag (273) through every draw method a host's callers use.
func streamDigest(r *rand.Rand) string {
	h := sha256.New()
	put := func(v uint64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], v)
		h.Write(b[:])
	}
	for i := 0; i < 600; i++ {
		switch i % 5 {
		case 0:
			put(math.Float64bits(r.Float64()))
		case 1:
			put(uint64(r.Int63n(int64(i)<<20 + 3)))
		case 2:
			put(uint64(r.Intn(i + 7)))
		case 3:
			for _, p := range r.Perm(5) {
				put(uint64(p))
			}
		case 4:
			s := [4]uint64{0, 1, 2, 3}
			r.Shuffle(len(s), func(a, b int) { s[a], s[b] = s[b], s[a] })
			for _, v := range s {
				put(v)
			}
		}
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestSeededStreamsPinned pins a node's draw stream: how (network seed,
// node name) becomes the stream's seed, and the stream itself, against
// constants recorded from math/rand's own source. Rand() hands out the one
// stream the node's own loss and jitter draws also read.
func TestSeededStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		node string
		want string
	}{
		{1, "broker0", "f3fbb56f463e7e32c01488fb818512a02ec846d2de85a483c327c399be491211"},
		{1, "peer4095", "2f55592bb5e5a2e0c41691eca2cc92d84eb0ac1323b0a521fd3b3bb753988828"},
		{2, "planetlab1.hiit.fi", "7d79c952abf68076be9786ceccb3b0382ea8767b8ce082686d0b285ba88e86af"},
		{-7, "sc1", "fadc07e4f5e61000c2d8323f09fdb8bb444e0f42573e2bd3051a947fcb24b23d"},
		{2007, "n", "da8fdf371d1a854ee8a1e6c4a35d3820c0a27360a809cb569aead0d7139b83d6"},
	} {
		nd := New(tc.seed).MustAddNode(tc.node, DefaultProfile())
		if got := streamDigest(nd.Rand()); got != tc.want {
			t.Errorf("node %q on network %d: digest %s, want %s", tc.node, tc.seed, got, tc.want)
		}
	}
}
