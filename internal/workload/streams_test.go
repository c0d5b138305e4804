package workload

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
// generator's lag (273) through every draw method the flow generators use.
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

// TestSeededStreamsPinned pins a flow's draw stream: how (cell seed, flow
// index) becomes the stream's seed (FlowSeed), and the stream itself,
// against constants recorded from math/rand's own source.
func TestSeededStreamsPinned(t *testing.T) {
	for _, tc := range []struct {
		seed int64
		flow int
		want string
	}{
		{1, 0, "8c0676f9516a8b81a30d0f903a551133710d5c000bdfd6e81f481c06e7e671b5"},
		{1, 4095, "6bb9011960c4724974e67f478eb3eaf272b03ca1985e3eb57fa9676d3a650b0d"},
		{2, 255, "bb729942924bc783ea09c922cf23438cb185bb1dba4084c2aefb8fe7e6afd5be"},
		{-7, 3, "4dba46b7b73a8373250a57c35da55501e372c7c3980fc52fa44915b46708fbfa"},
		{2007, 65535, "0aa15f097b426fff5756595b4716a5147c4f7d0569b263361dd2c430464a4036"},
	} {
		if got := streamDigest(flowRand(tc.seed, tc.flow)); got != tc.want {
			t.Errorf("flowRand(%d, %d): digest %s, want %s", tc.seed, tc.flow, got, tc.want)
		}
	}
}
