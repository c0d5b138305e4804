package stats

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// busyPeer is a record every report kind has written to.
func busyPeer(now func() time.Time) *PeerStats {
	p := NewPeerStats("busy", now)
	for i := 0; i < 16; i++ {
		p.RecordMessage(i%5 != 0)
		p.RecordFileSent(i%7 != 0)
		p.RecordTransferOutcome(i%11 == 0)
		p.RecordTaskOffer(true)
		p.RecordTaskExecution(i%9 != 0, 0.5)
		p.ObserveTransferRate(1<<20, time.Second)
		p.ObservePetitionDelay(40 * time.Millisecond)
	}
	p.SetQueues(3, 5)
	p.SetCPUScore(1.5)
	return p
}

// BenchmarkRecord prices one outcome recorded into a peer's record, cycling
// through the four a transfer report makes: a message, a file sent, a
// transfer outcome and a task execution.
func BenchmarkRecord(b *testing.B) {
	now, _ := fixedClock(t0)
	p := busyPeer(now)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		switch ok := i%3 != 0; i % 4 {
		case 0:
			p.RecordMessage(ok)
		case 1:
			p.RecordFileSent(ok)
		case 2:
			p.RecordTransferOutcome(!ok)
		case 3:
			p.RecordTaskExecution(ok, 0.5)
		}
	}
}

// BenchmarkSnapshotInto prices filling one candidate slot, the per-candidate
// read of a candidate-table build, at the default message window.
func BenchmarkSnapshotInto(b *testing.B) {
	now, _ := fixedClock(t0)
	p := busyPeer(now)
	var s Snapshot
	at := now()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		p.SnapshotInto(&s, at)
	}
}

// BenchmarkRegistryBytesPerPeer reports the live heap a registry holds per
// registered peer — the record and its map entry, names aside — at 4 096
// peers that each reported once.
func BenchmarkRegistryBytesPerPeer(b *testing.B) {
	const peers = 4096
	now, _ := fixedClock(t0)
	names := make([]string, peers)
	for i := range names {
		names[i] = fmt.Sprintf("n%05d.uniform.slice.peerlab", i)
	}
	var total float64
	for i := 0; i < b.N; i++ {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		r := NewRegistry(now)
		for _, n := range names {
			ps := r.Peer(n)
			ps.SetCPUScore(1)
			ps.RecordMessage(true)
		}
		runtime.GC()
		runtime.ReadMemStats(&after)
		runtime.KeepAlive(r)
		total += float64(after.HeapAlloc-before.HeapAlloc) / peers
	}
	b.ReportMetric(total/float64(b.N), "B/peer")
}
