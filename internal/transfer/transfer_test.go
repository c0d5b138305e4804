package transfer

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"
	"time"

	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// handlerFunc is a func as a pipe.Handler.
type handlerFunc func(pipe.Conn, pipe.Event)

func (f handlerFunc) Handle(c pipe.Conn, ev pipe.Event) { f(c, ev) }

// Split cuts f into its parts for n, in order: the parts Send streams one
// by one, gathered.
func Split(f File, n int) ([]Part, error) {
	n, err := f.Parts(n)
	if err != nil {
		return nil, err
	}
	parts := make([]Part, n)
	for i := range parts {
		parts[i] = f.Part(n, i)
	}
	return parts, nil
}

func TestSplitExact(t *testing.T) {
	f := NewVirtualFile("f", 100*Mb, 1)
	parts, err := Split(f, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 4 {
		t.Fatalf("parts = %d", len(parts))
	}
	for i, p := range parts {
		if p.Size != 25*Mb {
			t.Fatalf("part %d size = %d, want 25Mb", i, p.Size)
		}
		if p.Offset != i*25*Mb {
			t.Fatalf("part %d offset = %d", i, p.Offset)
		}
	}
}

func TestSplitUneven(t *testing.T) {
	f := NewVirtualFile("f", 10, 1)
	parts, err := Split(f, 3)
	if err != nil {
		t.Fatal(err)
	}
	sizes := []int{4, 3, 3}
	total := 0
	for i, p := range parts {
		if p.Size != sizes[i] {
			t.Fatalf("part %d size = %d, want %d", i, p.Size, sizes[i])
		}
		total += p.Size
	}
	if total != 10 {
		t.Fatalf("total = %d", total)
	}
}

func TestSplitMorePartsThanBytes(t *testing.T) {
	parts, err := Split(NewVirtualFile("f", 3, 1), 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(parts) != 3 {
		t.Fatalf("parts = %d, want clamped 3", len(parts))
	}
}

func TestSplitRejectsBadInput(t *testing.T) {
	if _, err := Split(NewVirtualFile("f", 10, 1), 0); err == nil {
		t.Fatal("0 parts accepted")
	}
	if _, err := Split(NewVirtualFile("f", 0, 1), 1); err == nil {
		t.Fatal("empty file accepted")
	}
}

func TestJoinRealData(t *testing.T) {
	data := []byte("the quick brown fox jumps over the lazy dog")
	f := NewFile("fox", data)
	parts, err := Split(f, 5)
	if err != nil {
		t.Fatal(err)
	}
	joined, err := Join("fox", len(data), parts)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(joined.Data, data) {
		t.Fatalf("joined = %q", joined.Data)
	}
	if joined.Checksum() != f.Checksum() {
		t.Fatal("checksum changed across split/join")
	}
}

func TestJoinDetectsGap(t *testing.T) {
	f := NewVirtualFile("f", 100, 1)
	parts, _ := Split(f, 4)
	parts[2].Offset++ // introduce a gap
	if _, err := Join("f", 100, parts); err == nil {
		t.Fatal("gap not detected")
	}
}

func TestJoinDetectsShortCoverage(t *testing.T) {
	f := NewVirtualFile("f", 100, 1)
	parts, _ := Split(f, 4)
	if _, err := Join("f", 100, parts[:3]); err == nil {
		t.Fatal("missing part not detected")
	}
}

func TestJoinDetectsOutOfOrder(t *testing.T) {
	f := NewVirtualFile("f", 100, 1)
	parts, _ := Split(f, 4)
	parts[0], parts[1] = parts[1], parts[0]
	if _, err := Join("f", 100, parts); err == nil {
		t.Fatal("out-of-order not detected")
	}
}

func TestChecksumDistinguishesVirtualFiles(t *testing.T) {
	a := NewVirtualFile("f", 100, 1)
	b := NewVirtualFile("f", 100, 2)
	c := NewVirtualFile("f", 101, 1)
	if a.Checksum() == b.Checksum() || a.Checksum() == c.Checksum() {
		t.Fatal("virtual checksums collide")
	}
	if a.Checksum() != NewVirtualFile("f", 100, 1).Checksum() {
		t.Fatal("virtual checksum unstable")
	}
}

func TestPropertySplitJoinRoundtrip(t *testing.T) {
	f := func(size uint16, n uint8, real bool) bool {
		sz := int(size)%5000 + 1
		parts := int(n)%16 + 1
		var file File
		if real {
			data := make([]byte, sz)
			for i := range data {
				data[i] = byte(i * 31)
			}
			file = NewFile("p", data)
		} else {
			file = NewVirtualFile("p", sz, 42)
		}
		split, err := Split(file, parts)
		if err != nil {
			return false
		}
		joined, err := Join("p", sz, split)
		if err != nil {
			return false
		}
		if real && !bytes.Equal(joined.Data, file.Data) {
			return false
		}
		return joined.Size == sz
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// --- end-to-end over simnet ---

type xferRig struct {
	net      *simnet.Network
	mux      *pipe.Mux // the sender's, for tests that speak the protocol raw
	sender   *Sender
	received []Received
}

func newXferRig(t testing.TB, src, dst simnet.Profile) *xferRig {
	t.Helper()
	n := simnet.New(11)
	a := n.MustAddNode("src", src)
	b := n.MustAddNode("dst", dst)
	epA, err := a.Endpoint("xfer")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("xfer")
	if err != nil {
		t.Fatal(err)
	}
	rig := &xferRig{net: n}
	muxA := pipe.NewMux(a, epA, pipe.Options{})
	pipe.NewMux(b, epB, pipe.Options{Serve: Receiver(b, func(rc Received) { rig.received = append(rig.received, rc) })})
	rig.mux = muxA
	rig.sender = NewSender(a, muxA)
	return rig
}

func fastProfile() simnet.Profile {
	p := simnet.DefaultProfile()
	p.LatencyOneWay = 10 * time.Millisecond
	p.Bandwidth = 1e6 // 1 MB/s
	return p
}

func TestEndToEndVirtualTransfer(t *testing.T) {
	rig := newXferRig(t, fastProfile(), fastProfile())
	var m Metrics
	var err error
	rig.net.Run(func() {
		err = rig.sender.Send("dst/xfer", NewVirtualFile("report.dat", 5*Mb, 9), 4, &m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if m.Failed {
		t.Fatal("metrics marked failed")
	}
	if len(rig.received) != 1 {
		t.Fatalf("receiver got %d files", len(rig.received))
	}
	rc := rig.received[0]
	if rc.File.Size != 5*Mb || !rc.Verified || rc.Sender != "src" {
		t.Fatalf("received = %+v", rc)
	}
	// ~10s serialization at 1MB/s (5MB, halved link) plus small overheads.
	if tt := m.TransmissionTime(); tt < 5*time.Second || tt > 20*time.Second {
		t.Fatalf("transmission time = %v, want seconds-scale", tt)
	}
	if len(m.Parts) != 4 {
		t.Fatalf("parts = %d", len(m.Parts))
	}
	for i, pt := range m.Parts {
		if pt.Confirmed.Before(pt.Started) {
			t.Fatalf("part %d confirmed before started", i)
		}
	}
}

func TestEndToEndRealDataVerified(t *testing.T) {
	rig := newXferRig(t, fastProfile(), fastProfile())
	data := bytes.Repeat([]byte("abcdefgh"), 1000)
	var err error
	rig.net.Run(func() {
		err = rig.sender.Send("dst/xfer", NewFile("real.bin", data), 3, new(Metrics))
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rig.received) != 1 {
		t.Fatal("no file received")
	}
	rc := rig.received[0]
	if !rc.Verified {
		t.Fatal("checksum verification failed")
	}
	if !bytes.Equal(rc.File.Data, data) {
		t.Fatal("data corrupted in flight")
	}
}

func TestPetitionDelayReflectsWakeLag(t *testing.T) {
	dst := fastProfile()
	dst.WakeLag = 12 * time.Second
	dst.WakeLagSpread = 0
	rig := newXferRig(t, fastProfile(), dst)
	var m Metrics
	var err error
	rig.net.Run(func() {
		err = rig.sender.Send("dst/xfer", NewVirtualFile("f", 1*Mb, 1), 1, &m)
	})
	if err != nil {
		t.Fatal(err)
	}
	if pd := m.PetitionDelay(); pd < 12*time.Second || pd > 14*time.Second {
		t.Fatalf("petition delay = %v, want ~12s wake lag", pd)
	}
}

// refuseAll returns the Options.Serve of a scripted receiver that answers
// every petition with a refusal and closes the conn.
func refuseAll(host transport.Host) func(pipe.Conn) pipe.Handler {
	refuse := func(conn pipe.Conn, ev pipe.Event) {
		defer conn.Close()
		if ev.Err != nil {
			return
		}
		conn.Send(wire.Frame(msgPetitionAck, petitionAck{Reason: "quota exceeded", ReceivedAt: host.Now()}.encodeTo))
	}
	return func(pipe.Conn) pipe.Handler { return handlerFunc(refuse) }
}

// TestRepeatedPartAckIsRejected: acks come from another host, so the
// sender holds them to its one rule — an ack confirms a part that was sent
// and is not yet confirmed. A scripted receiver confirms the first of two
// streamed pieces twice and never the second; the transfer must fail, not
// return with a piece nobody confirmed.
func TestRepeatedPartAckIsRejected(t *testing.T) {
	n := simnet.New(11)
	a := n.MustAddNode("src", fastProfile())
	b := n.MustAddNode("dst", fastProfile())
	epA, _ := a.Endpoint("xfer")
	epB, _ := b.Endpoint("xfer")
	petitioned := false
	ackPieceOne := func(conn pipe.Conn, ev pipe.Event) {
		switch {
		case ev.Err != nil:
			conn.Close()
		case !petitioned:
			petitioned = true
			conn.Send(wire.Frame(msgPetitionAck, petitionAck{Accept: true, ReceivedAt: b.Now()}.encodeTo))
		default:
			conn.Send(wire.Frame(msgPartAck, partAck{Index: 1, OK: true, DeliveredAt: b.Now()}.encodeTo))
		}
	}
	pipe.NewMux(b, epB, pipe.Options{Serve: func(pipe.Conn) pipe.Handler { return handlerFunc(ackPieceOne) }})
	s := NewSender(a, pipe.NewMux(a, epA, pipe.Options{}))
	var m Metrics
	var err error
	n.Run(func() {
		err = s.SendPieces("dst/xfer", NewVirtualFile("f", 8*Mb, 1), 8, []int{1, 5}, &m)
	})
	if !errors.Is(err, ErrFailed) || !strings.Contains(err.Error(), "receiver rejected part 1") || !m.Failed {
		t.Fatalf("err = %v, failed %v; want the repeated ack rejected", err, m.Failed)
	}
	if len(m.Parts) != 2 || m.Parts[1].Index != 5 || !m.Parts[1].Confirmed.IsZero() {
		t.Fatalf("parts = %+v; want piece 5 unconfirmed", m.Parts)
	}
}

func TestPetitionRejected(t *testing.T) {
	n := simnet.New(11)
	a := n.MustAddNode("src", fastProfile())
	b := n.MustAddNode("dst", fastProfile())
	epA, _ := a.Endpoint("xfer")
	epB, _ := b.Endpoint("xfer")
	pipe.NewMux(b, epB, pipe.Options{Serve: refuseAll(b)})
	s := NewSender(a, pipe.NewMux(a, epA, pipe.Options{}))
	var m Metrics
	var err error
	n.Run(func() {
		err = s.Send("dst/xfer", NewVirtualFile("f", Mb, 1), 1, &m)
	})
	if !errors.Is(err, ErrRejected) || !strings.Contains(err.Error(), "quota exceeded") {
		t.Fatalf("err = %v, want ErrRejected with the receiver's reason", err)
	}
	if len(m.Parts) != 0 {
		t.Fatalf("a refused petition was followed by %d parts", len(m.Parts))
	}
}

// TestPetitionPartCountOutOfRangeRefused sends hand-built petitions whose
// part count would panic (negative) or exhaust memory (2^30) if the receiver
// sized its reassembly buffers from it: each must come back refused, with
// nothing of that size allocated, and the receiver must still serve the
// next, honest transfer.
func TestPetitionPartCountOutOfRangeRefused(t *testing.T) {
	rig := newXferRig(t, fastProfile(), fastProfile())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rig.net.Run(func() {
		for _, parts := range []int{-1, 1 << 30} {
			conn, err := rig.mux.Dial("dst/xfer")
			if err != nil {
				t.Errorf("parts=%d: dial: %v", parts, err)
				return
			}
			pet := petition{FileName: "evil", TotalSize: 1 << 40, Parts: parts, Sender: "src"}
			if err := conn.Send(wire.Frame(msgPetition, pet.encodeTo)); err != nil {
				t.Errorf("parts=%d: send: %v", parts, err)
				return
			}
			msg, err := conn.Recv()
			if err != nil {
				t.Errorf("parts=%d: no ack: %v", parts, err)
				return
			}
			_, d, _ := wire.Tag(msg.Payload)
			ack, err := decodePetitionAck(d)
			if err != nil || ack.Accept || ack.Reason == "" {
				t.Errorf("parts=%d: ack = %+v, %v; want a refusal with a reason", parts, ack, err)
			}
			conn.Close()
		}
		if err := rig.sender.Send("dst/xfer", NewVirtualFile("ok", Mb, 1), 2, new(Metrics)); err != nil {
			t.Errorf("honest transfer after the refusals: %v", err)
		}
	})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("refusing the petitions allocated %d MB", grew>>20)
	}
	if len(rig.received) != 1 {
		t.Fatalf("%d files delivered, want 1", len(rig.received))
	}
}

// TestAcceptedPetitionAllocatesOnlyWhatArrives: a petition's part count is
// the sender's word, so an accepted petition must not size anything by it.
// A whole file of maxParts parts and a piece list spread over that split are
// each accepted, and until a part arrives the receiver holds under 1 MB for
// either: the whole file's announced set is a range, and a piece list costs
// what its own bytes already did.
func TestAcceptedPetitionAllocatesOnlyWhatArrives(t *testing.T) {
	pieces := make([]int, 4096)
	for i := range pieces {
		pieces[i] = i * (maxParts / len(pieces))
	}
	for _, indices := range [][]int{nil, pieces} {
		rig := newXferRig(t, fastProfile(), fastProfile())
		var before, after runtime.MemStats
		rig.net.Run(func() {
			conn, err := rig.mux.Dial("dst/xfer")
			if err != nil {
				t.Errorf("dial: %v", err)
				return
			}
			defer conn.Close()
			pet := petition{FileName: "big", TotalSize: 1 << 40, Parts: maxParts, Indices: indices, Sender: "src"}
			runtime.ReadMemStats(&before)
			if err := conn.Send(wire.Frame(msgPetition, pet.encodeTo)); err != nil {
				t.Errorf("send: %v", err)
				return
			}
			msg, err := conn.Recv()
			if err != nil {
				t.Errorf("no ack: %v", err)
				return
			}
			_, d, _ := wire.Tag(msg.Payload)
			if ack, err := decodePetitionAck(d); err != nil || !ack.Accept {
				t.Errorf("%d listed pieces: ack = %+v, %v; want an accept", len(indices), ack, err)
				return
			}
			rig.net.Scheduler().Sleep(time.Second) // meanwhile the receiver starts waiting for a part
			runtime.ReadMemStats(&after)
		})
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Errorf("%d listed pieces of %d: accepting the petition allocated %.1f MB before any part",
				len(indices), maxParts, float64(grew)/(1<<20))
		}
	}
}

// TestBadPieceListRefused: a piece petition that names a position outside
// the split or names one twice comes back refused in its petition ack, with
// the first such position in its reason, before any part is sent.
// SendPieces never sends one; a foreign sender may. The long lists hold
// more indices than any room kept inline, their one bad entry last.
func TestBadPieceListRefused(t *testing.T) {
	type badList struct {
		indices    []int
		parts, bad int
	}
	cases := []badList{{[]int{-2, -1}, 3, -2}, {[]int{0, 3}, 3, 3}, {[]int{1, 2, 1}, 3, 1}, {[]int{2, 0, 5, 0}, 4, 5}}
	for _, n := range []int{1024, 4096} {
		const parts = 8192
		spread := make([]int, n-1)
		for i := range spread {
			spread[i] = (i * 7919) % parts // distinct, out of order
		}
		cases = append(cases,
			badList{append(slices.Clone(spread), spread[n/2]), parts, spread[n/2]},
			badList{append(slices.Clone(spread), parts), parts, parts},
			badList{append(slices.Clone(spread), -1), parts, -1})
	}
	for _, tc := range cases {
		pet := petition{FileName: "v.bin", TotalSize: 100 * tc.parts, Parts: tc.parts, Indices: tc.indices, Sender: "src"}
		out := runReceiverProgram(receiverProgram{petition: wire.Frame(msgPetition, pet.encodeTo)}, realReceiver)
		want := fmt.Sprintf("petition accept=false reason=%q err=<nil>",
			fmt.Sprintf("piece list names part %d of %d twice or outside the split", tc.bad, tc.parts))
		if len(out.acks) != 1 || out.acks[0] != want {
			t.Errorf("%d pieces ending %v: the sender saw\n%v\nwant only %s", len(tc.indices), tc.indices[len(tc.indices)-1], out, want)
		}
	}
}

// TestHugePetitionSizeStillTimesOut: the receiver's per-part wait grows with
// the announced part size, which is the sender's word. A petition for one
// part of math.MaxInt64 bytes must not stretch it past partTimeout plus
// maxStretch (it used to overflow to a negative wait, which never ends), so
// a sender that goes silent after the petition still gets the receiver's
// FIN.
func TestHugePetitionSizeStillTimesOut(t *testing.T) {
	rig := newXferRig(t, fastProfile(), fastProfile())
	limit := partTimeout + maxStretch
	var err error
	var waited time.Duration
	rig.net.Run(func() {
		conn, derr := rig.mux.Dial("dst/xfer")
		if derr != nil {
			err = derr
			return
		}
		defer conn.Close()
		pet := petition{FileName: "huge", TotalSize: math.MaxInt64, Parts: 1, Sender: "src"}
		if err = conn.Send(wire.Frame(msgPetition, pet.encodeTo)); err != nil {
			return
		}
		if _, err = conn.Recv(); err != nil {
			return
		}
		start := rig.net.Now()
		_, err = conn.Recv()
		waited = rig.net.Now().Sub(start)
	})
	if !errors.Is(err, pipe.ErrClosed) || waited < partTimeout || waited > limit+time.Second {
		t.Fatalf("after a petition of %d bytes and silence: %v after %v; want the receiver's FIN within %v", int64(math.MaxInt64), err, waited, limit)
	}
}

// TestPetitionTotalSizeOutOfRangeNotAllocated: a petition's TotalSize is the
// sender's word and reaches Join, which used to size the reassembly buffer
// from it before looking at the parts — a negative size panicked the
// receiver (makeslice: len out of range) and 2^40 asked for a terabyte. One
// real byte follows each hostile petition: the part is confirmed, the join
// fails on coverage with nothing of that size allocated, no verified file
// is delivered, and the receiver still serves the next, honest transfer.
func TestPetitionTotalSizeOutOfRangeNotAllocated(t *testing.T) {
	rig := newXferRig(t, fastProfile(), fastProfile())
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rig.net.Run(func() {
		for _, total := range []int{-1, 1 << 40} {
			conn, err := rig.mux.Dial("dst/xfer")
			if err != nil {
				t.Errorf("total=%d: dial: %v", total, err)
				return
			}
			pet := petition{FileName: "evil", TotalSize: total, Parts: 1, Sender: "src"}
			part := Part{Index: 0, Offset: 0, Size: 1, Data: []byte{0xff}}
			for _, msg := range [][]byte{wire.Frame(msgPetition, pet.encodeTo), wire.Frame(msgPart, part.encodeTo)} {
				if err := conn.Send(msg); err != nil {
					t.Errorf("total=%d: send: %v", total, err)
					return
				}
				if _, err := conn.Recv(); err != nil {
					t.Errorf("total=%d: no ack: %v", total, err)
					return
				}
			}
			conn.Close()
		}
		if err := rig.sender.Send("dst/xfer", NewFile("ok", []byte("honest bytes")), 2, new(Metrics)); err != nil {
			t.Errorf("honest transfer after the hostile ones: %v", err)
		}
	})
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<20 {
		t.Fatalf("joining the hostile transfers allocated %d MB", grew>>20)
	}
	if len(rig.received) != 3 {
		t.Fatalf("%d transfers completed, want 3", len(rig.received))
	}
	for i, rc := range rig.received {
		if want := i == 2; rc.Verified != want {
			t.Fatalf("transfer %d (%q): verified = %v, want %v", i, rc.File.Name, rc.Verified, want)
		}
	}
}

func TestGranularityWholeSlowerThanParts(t *testing.T) {
	// With size-dependent degradation, the whole file must be slower than
	// 4 parts, which must be slower than 16 parts (Figure 5's shape).
	run := func(parts int) time.Duration {
		dst := fastProfile()
		dst.DegradeRefBytes = 25 * Mb
		dst.DegradeExp = 1.5
		rig := newXferRig(t, fastProfile(), dst)
		var m Metrics
		var err error
		rig.net.Run(func() {
			err = rig.sender.Send("dst/xfer", NewVirtualFile("big", 100*Mb, 3), parts, &m)
		})
		if err != nil {
			t.Fatalf("parts=%d: %v", parts, err)
		}
		return m.TransmissionTime()
	}
	whole := run(1)
	four := run(4)
	sixteen := run(16)
	if !(whole > four && four > sixteen) {
		t.Fatalf("granularity shape violated: whole=%v four=%v sixteen=%v", whole, four, sixteen)
	}
}

func TestTransferSurvivesLoss(t *testing.T) {
	dst := fastProfile()
	dst.LossRate = 0.2
	rig := newXferRig(t, fastProfile(), dst)
	var err error
	rig.net.Run(func() {
		err = rig.sender.Send("dst/xfer", NewVirtualFile("f", 2*Mb, 5), 8, new(Metrics))
	})
	if err != nil {
		t.Fatalf("transfer failed under 20%% loss: %v", err)
	}
	if len(rig.received) != 1 || !rig.received[0].Verified {
		t.Fatal("file not received intact")
	}
}

func TestSendToDeadPeerFails(t *testing.T) {
	n := simnet.New(11)
	a := n.MustAddNode("src", fastProfile())
	n.MustAddNode("dst", fastProfile()) // no receiver bound
	epA, _ := a.Endpoint("xfer")
	muxA := pipe.NewMux(a, epA, pipe.Options{})
	s := NewSender(a, muxA)
	var err error
	n.Run(func() {
		err = s.Send("dst/xfer", NewVirtualFile("f", Mb, 1), 1, new(Metrics))
	})
	if !errors.Is(err, ErrFailed) {
		t.Fatalf("err = %v, want ErrFailed", err)
	}
}

// confirmationRun sends one 8-part file on a high-latency path — stop-and-wait
// through Send, or all eight pieces streamed through SendPieces — and returns
// its metrics.
func confirmationRun(t *testing.T, streamed bool) Metrics {
	t.Helper()
	src, dst := fastProfile(), fastProfile()
	src.LatencyOneWay = 150 * time.Millisecond
	dst.LatencyOneWay = 150 * time.Millisecond
	rig := newXferRig(t, src, dst)
	file := NewVirtualFile("stream.bin", 4*Mb, 7)
	var m Metrics
	var err error
	rig.net.Run(func() {
		if streamed {
			err = rig.sender.SendPieces("dst/xfer", file, 8, []int{0, 1, 2, 3, 4, 5, 6, 7}, &m)
		} else {
			err = rig.sender.Send("dst/xfer", file, 8, &m)
		}
	})
	if err != nil {
		t.Fatalf("streamed=%v: %v", streamed, err)
	}
	return m
}

// TestPipelinedIsolatesConfirmationCost quantifies what the paper never
// isolated: the application-level stop-and-wait confirmation burns one
// round-trip per part, which a streaming sender does not pay. Both calls run
// the same part stream against the same receive loop, so the difference is
// the confirmation wait and nothing else. The stop-and-wait results are
// pinned by TestGranularityWholeSlowerThanParts, the experiment harness's
// Fig5 shape test and TestTransferTranscript.
func TestPipelinedIsolatesConfirmationCost(t *testing.T) {
	stopWait := confirmationRun(t, false)
	piped := confirmationRun(t, true)
	// 8 parts at 300ms RTT: stop-and-wait pays ~7 extra round-trips.
	saved := stopWait.TransmissionTime() - piped.TransmissionTime()
	if saved < time.Second {
		t.Fatalf("streaming saved only %v (stop-and-wait %v, streamed %v); expected >=1s of confirmation RTTs",
			saved, stopWait.TransmissionTime(), piped.TransmissionTime())
	}
	// Both records are complete: every part delivered, confirmed, in slot
	// order, and counted as one attempt.
	for name, m := range map[string]Metrics{"stop-and-wait": stopWait, "streamed": piped} {
		if m.Attempts != 1 || m.Done.IsZero() || m.Failed || len(m.Parts) != 8 {
			t.Fatalf("%s metrics = %+v", name, m)
		}
		for i, pt := range m.Parts {
			if pt.Index != i || pt.Delivered.IsZero() || pt.Confirmed.Before(pt.Started) {
				t.Fatalf("%s part %d timing incomplete: %+v", name, i, pt)
			}
		}
	}
}

// TestDefaultModeDeterministicRegression pins the stop-and-wait path:
// identical seeds produce bit-identical metrics, the shape Figure 5 is built
// from.
func TestDefaultModeDeterministicRegression(t *testing.T) {
	run := func() Metrics {
		rig := newXferRig(t, fastProfile(), fastProfile())
		var m Metrics
		var err error
		rig.net.Run(func() {
			err = rig.sender.Send("dst/xfer", NewVirtualFile("f", 5*Mb, 3), 4, &m)
		})
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
	a, b := run(), run()
	if a.TransmissionTime() != b.TransmissionTime() || a.PetitionDelay() != b.PetitionDelay() {
		t.Fatalf("default mode diverged across identical runs: %v vs %v",
			a.TransmissionTime(), b.TransmissionTime())
	}
	if a.Attempts != 1 {
		t.Fatalf("Attempts = %d, want 1 for a first-launch success", a.Attempts)
	}
}

func TestLastMbTimeScaling(t *testing.T) {
	m := Metrics{
		TotalBytes:  50 * Mb,
		Granularity: 1,
		Parts: []PartTiming{{
			Index:     0,
			Size:      50 * Mb,
			Started:   time.Unix(0, 0),
			Delivered: time.Unix(50, 0), // 50s service for 50 Mb
			Confirmed: time.Unix(51, 0), // 1s confirm RTT
		}},
	}
	// 1 Mb of a 50 Mb part: 1s of service + 1s confirm = 2s.
	if got := m.LastMbTime(); got != 2*time.Second {
		t.Fatalf("LastMbTime = %v, want 2s", got)
	}
}

func TestMetricsDerivations(t *testing.T) {
	t0 := time.Unix(100, 0)
	m := Metrics{
		TotalBytes:       10 * Mb,
		PetitionSent:     t0,
		PetitionReceived: t0.Add(3 * time.Second),
		Parts: []PartTiming{
			{Index: 0, Size: 5 * Mb, Started: t0.Add(4 * time.Second), Delivered: t0.Add(9 * time.Second), Confirmed: t0.Add(10 * time.Second)},
			{Index: 1, Size: 5 * Mb, Started: t0.Add(10 * time.Second), Delivered: t0.Add(15 * time.Second), Confirmed: t0.Add(16 * time.Second)},
		},
		Done: t0.Add(16 * time.Second),
	}
	if got := m.PetitionDelay(); got != 3*time.Second {
		t.Fatalf("PetitionDelay = %v", got)
	}
	if got := m.TransmissionTime(); got != 12*time.Second {
		t.Fatalf("TransmissionTime = %v", got)
	}
}

// TestFailedSendReportsZeroDurations: a send that fails before an instant
// is stamped reports 0 for the duration that instant would end, not a span
// from the zero time. The first petition is never answered, so neither
// duration is known; the second is acknowledged and part 0 of 4 confirmed,
// but the last part never is.
func TestFailedSendReportsZeroDurations(t *testing.T) {
	t.Cleanup(func() { pipe.SetDebugDispatch(nil) })
	file := NewVirtualFile("f.bin", 2*Mb, 5)
	for _, tc := range []struct {
		name     string
		setup    func(*transcript)
		petition bool // whether the petition is acknowledged
	}{
		{"petition never answered", nil, false},
		{"part ack times out after part 0 of 4", (*transcript).serveFirstPartOnly, true},
	} {
		tr := newTranscript(t, tc.name, tc.setup)
		var m Metrics
		var err error
		tr.net.Run(func() { err = tr.sender.Send("dst/xfer", file, 4, &m) })
		if err == nil || !m.Failed {
			t.Fatalf("%s: err %v, failed %v; want a failed send", tc.name, err, m.Failed)
		}
		if d := m.PetitionDelay(); (d > 0) != tc.petition || d < 0 {
			t.Errorf("%s: petition delay %v", tc.name, d)
		}
		if d := m.TransmissionTime(); d != 0 {
			t.Errorf("%s: transmission time %v, want 0", tc.name, d)
		}
	}
}

// TestDecodePiecePetitionBoundsCount: the index count is checked against
// the input before anything is sized by it. Pieces is the sender's word
// too, so a frame of a few bytes claiming 2^30 indices of 2^30 pieces used
// to reserve 8 GB.
func TestDecodePiecePetitionBoundsCount(t *testing.T) {
	e := wire.NewEncoder(32)
	e.Byte(msgPetition)
	e.String("f")
	e.String("")
	e.Int(1 << 30)
	e.Int(1 << 30) // Pieces
	e.Int(1 << 30) // index count, and then no indices
	if _, err := decodePetition(e.Bytes(), nil); !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("hostile count: err = %v, want ErrCorrupt", err)
	}
	in := petition{FileName: "f", Checksum: "c", TotalSize: 1000, Parts: 8,
		Indices: []int{1, 5, 7}, Sender: "sc1"}
	raw := wire.Frame(msgPetition, in.encodeTo)
	out, err := decodePetition(raw, nil)
	if err != nil || !reflect.DeepEqual(out, in) {
		t.Fatalf("roundtrip = %+v, %v", out, err)
	}
	for cut := 0; cut < len(raw); cut++ {
		if _, err := decodePetition(raw[:cut], nil); err == nil {
			t.Fatalf("petition cut at %d of %d decoded without error", cut, len(raw))
		}
	}
	// The whole file is the same frame with an index count of 0, which an
	// empty selection also encodes: both decode as the whole file.
	for _, indices := range [][]int{nil, {}} {
		in.Indices = indices
		if out, err = decodePetition(wire.Frame(msgPetition, in.encodeTo), nil); err != nil || out.Indices != nil {
			t.Fatalf("roundtrip of %#v = %+v, %v", indices, out, err)
		}
	}
}
