package transfer

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"testing"

	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
)

// TestSendPiecesPartsMatchSplit is the oracle for SendPieces' selection:
// seeded (size, pieces, indices) cases — sizes below the piece count,
// uneven splits, a piece count of 0, an empty file, repeated and
// out-of-range indices, an empty list — sent to a live receiver. A
// selection Split can serve must come back with one part per index, in
// the list's order, each of the size Split gives it, and TotalBytes their
// sum. Any other must be refused with the text the reference derives from
// Split, before a conn is dialled, its TotalBytes the sizes of the valid
// indices ahead of the refused one.
func TestSendPiecesPartsMatchSplit(t *testing.T) {
	rig := newXferRig(t, fastProfile(), fastProfile())
	rng := rand.New(rand.NewSource(60))
	type outcome struct {
		m   Metrics
		err error
	}
	cases := 300
	if testing.Short() {
		cases = 100
	}
	sent := 0
	for c := 0; c < cases; c++ {
		size := 1 + rng.Intn(200)
		if rng.Intn(6) == 0 {
			size = 1 + rng.Intn(8) // fewer bytes than pieces, often
		}
		pieces := 1 + rng.Intn(40)
		switch rng.Intn(40) {
		case 0:
			pieces = 0
		case 1:
			size = 0
		}
		f := NewVirtualFile(fmt.Sprintf("f%d", c), size, int64(c))
		split, splitErr := Split(f, pieces)
		var indices []int
		for k := rng.Intn(6); k > 0 && len(split) > 0; k-- {
			indices = append(indices, rng.Intn(len(split)))
		}
		switch rng.Intn(8) {
		case 0:
			indices = append(indices, len(split)+rng.Intn(3))
		case 1:
			indices = append(indices, -1-rng.Intn(3))
		case 2:
			indices = nil
		}
		// The reference: Split's refusal, or the first index that is out of
		// range or repeats an earlier one, or an empty list.
		want, total := "", 0
		switch {
		case splitErr != nil:
			want = splitErr.Error()
		default:
			seen := map[int]bool{}
			for _, idx := range indices {
				if idx < 0 || idx >= len(split) || seen[idx] {
					want = fmt.Sprintf("transfer: piece index %d invalid for %d-piece split of %q", idx, len(split), f.Name)
					break
				}
				seen[idx] = true
				total += split[idx].Size
			}
			if want == "" && len(indices) == 0 {
				want = fmt.Sprintf("transfer: no pieces selected for %q", f.Name)
			}
		}
		var got outcome
		rig.net.Run(func() {
			got.err = rig.sender.SendPieces("dst/xfer", f, pieces, indices, &got.m)
		})
		what := fmt.Sprintf("case %d: %d bytes in %d pieces, indices %v", c, size, pieces, indices)
		if got.m.TotalBytes != total {
			t.Fatalf("%s: TotalBytes %d, reference %d", what, got.m.TotalBytes, total)
		}
		if want != "" {
			if got.err == nil || got.err.Error() != want {
				t.Fatalf("%s: err %v, reference %q", what, got.err, want)
			}
			if len(got.m.Parts) != 0 || !got.m.PetitionSent.IsZero() {
				t.Fatalf("%s: a refused selection sent: %+v", what, got.m)
			}
			continue
		}
		if got.err != nil || got.m.Failed {
			t.Fatalf("%s: %v (failed %v)", what, got.err, got.m.Failed)
		}
		if len(got.m.Parts) != len(indices) || got.m.Granularity != len(indices) {
			t.Fatalf("%s: %d parts at granularity %d, want %d", what, len(got.m.Parts), got.m.Granularity, len(indices))
		}
		for n, pt := range got.m.Parts {
			if pt.Index != indices[n] || pt.Size != split[indices[n]].Size || pt.Confirmed.IsZero() {
				t.Fatalf("%s: part %d is %+v, Split's is %+v", what, n, pt, split[indices[n]])
			}
		}
		sent++
	}
	if sent < cases/3 {
		t.Fatalf("only %d of %d cases sent anything", sent, cases)
	}
}

// TestPieceSelectionAllocatesNothing: SendPieces checks its list and sums
// its sizes without building a part or a set; only a refusal allocates.
func TestPieceSelectionAllocatesNothing(t *testing.T) {
	f := NewVirtualFile("pieces", 16*Mb+5, 3)
	indices := []int{9, 2, 15, 0}
	var m Metrics
	allocs := testing.AllocsPerRun(50, func() {
		m.TotalBytes = 0
		if _, err := selectPieces(f, 16, indices, &m); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Errorf("selecting %d of 16 pieces: %v allocations, budget 0", len(indices), allocs)
	}
	if m.TotalBytes != 4*Mb+2 { // parts 0 and 2 carry one of the 5 spare bytes each
		t.Errorf("TotalBytes = %d, want %d", m.TotalBytes, 4*Mb+2)
	}
}

// TestChecksumAllocatesOnce: the hashed bytes and the digest live on the
// stack, so the returned string is a checksum's one allocation, for a
// virtual file and a real one alike.
func TestChecksumAllocatesOnce(t *testing.T) {
	for _, f := range []File{NewVirtualFile("report.dat", 100*Mb, 9), NewFile("real.bin", make([]byte, 4096))} {
		var sum string
		if allocs := testing.AllocsPerRun(50, func() { sum = f.Checksum() }); allocs != 1 {
			t.Errorf("Checksum of %q: %v allocations, budget 1", f.Name, allocs)
		}
		if len(sum) != 32 {
			t.Errorf("Checksum of %q = %q, want 32 hex digits", f.Name, sum)
		}
	}
}

// TestReceiverAcceptAllocatesOnce: an accepted transfer conn costs its
// inbound state alone, which is its own handler.
func TestReceiverAcceptAllocatesOnce(t *testing.T) {
	n := simnet.New(1)
	a := n.MustAddNode("dst", fastProfile())
	ep, err := a.Endpoint("xfer")
	if err != nil {
		t.Fatal(err)
	}
	conn, err := pipe.NewMux(a, ep, pipe.Options{}).Dial("src/xfer")
	if err != nil {
		t.Fatal(err)
	}
	accept := Receiver(a, nil)
	if allocs := testing.AllocsPerRun(50, func() { accept(conn) }); allocs != 1 {
		t.Errorf("accepting a transfer conn: %v allocations, budget 1", allocs)
	}
}

// pieceTransfers runs count two-piece streamed transfers, one after another,
// over a rig that has already carried some, and returns what one costs end
// to end: sender, both muxes, the simulated network and the receiver.
func pieceTransfers(tb testing.TB, count int, timed func(run func())) (allocs float64) {
	rig := newXferRig(tb, fastProfile(), fastProfile())
	f, indices := NewVirtualFile("pieces", 16*Mb, 3), []int{9, 2}
	var m Metrics
	send := func(k int) {
		for range k {
			if err := rig.sender.SendPieces("dst/xfer", f, 16, indices, &m); err != nil {
				tb.Fatal(err)
			}
		}
	}
	var before, after runtime.MemStats
	rig.net.Run(func() {
		send(8) // conns, free lists and pools settle
		runtime.ReadMemStats(&before)
		timed(func() { send(count) })
		runtime.ReadMemStats(&after)
	})
	return float64(after.Mallocs-before.Mallocs) / float64(count)
}

// TestPieceTransferAllocBudget pins what a warm two-piece streamed transfer
// allocates: 12. The sender makes its timings, one state record for the
// stream and one spawn func; the receiver its inbound state, whose inline
// room holds the piece list, its sorted copy and the landed bits. The rest
// is the six frames the two ends encode (petition, parts and acks), the
// petition's checksum and the receiver's one string copy of it.
func TestPieceTransferAllocBudget(t *testing.T) {
	const budget = 12
	if poolDropsPuts() {
		t.Skip("sync.Pool drops Puts at random (race detector): frame encoders are re-allocated and the count is not exact")
	}
	allocs := pieceTransfers(t, 256, func(run func()) { run() })
	t.Logf("%.2f allocations per two-piece transfer", allocs)
	if allocs > budget+0.5 {
		t.Errorf("a warm two-piece transfer: %.2f allocations, budget %d", allocs, budget)
	}
}

// BenchmarkPieceTransfer is one warm two-piece streamed transfer, sender and
// receiver, as the piece engine sends it.
func BenchmarkPieceTransfer(b *testing.B) {
	b.ReportAllocs()
	pieceTransfers(b, b.N, func(run func()) {
		b.ResetTimer()
		run()
		b.StopTimer()
	})
}

// poolDropsPuts reports whether sync.Pool may drop a Put, as it does on
// purpose under the race detector.
func poolDropsPuts() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(&i)
		if p.Get() == nil {
			return true
		}
	}
	return false
}
