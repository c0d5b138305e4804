package transfer

import (
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/vtime"
	"peerlab/internal/wire"
)

// cleanLink is one random clean path: no jitter, loss, MTBF, wake lag or
// degradation, each end's one-way latency under 300 ms and its bandwidth at
// least twice pipe.MinRate, so no retransmission timer fires.
type cleanLink struct {
	src, dst simnet.Profile
}

func randomCleanLink(rng *rand.Rand) cleanLink {
	end := func() simnet.Profile {
		return simnet.Profile{
			LatencyOneWay: time.Duration(rng.Int63n(int64(300 * time.Millisecond))),
			Bandwidth:     2*pipe.MinRate + rng.Float64()*50e6,
			CPUScore:      1,
		}
	}
	return cleanLink{end(), end()}
}

// latency is the path's propagation delay: both ends' one-way latencies.
func (l cleanLink) latency() time.Duration { return l.src.LatencyOneWay + l.dst.LatencyOneWay }

// tx is the serialization time of an n-byte frame at the path bandwidth,
// the slower end's, truncated to the nanosecond as the network computes it.
func (l cleanLink) tx(n int) time.Duration {
	return time.Duration(float64(n) / min(l.src.Bandwidth, l.dst.Bandwidth) * float64(time.Second))
}

func uvarintLen(v uint64) int { return len(binary.AppendUvarint(nil, v)) }

// dataFrame is the wire size of a pipe data frame on conn 1: the header
// (kind, direction, conn id, seq, a zero ack, the payload length) plus the
// charged size, which is at least the payload.
func dataFrame(seq uint64, payload, size int) int {
	return 1 + 1 + uvarintLen(1) + uvarintLen(seq) + 1 + uvarintLen(uint64(payload)) + max(size, payload)
}

// ackFrame is the wire size of a pipe ack through seq on conn 1: the same
// header with a zero seq, no payload.
func ackFrame(seq uint64) int {
	return 1 + 1 + uvarintLen(1) + 1 + uvarintLen(seq) + 1
}

// newCleanWorld builds the two-node world for l, its dst mux served by what
// serve returns for the dst node.
func newCleanWorld(t *testing.T, l cleanLink, serve func(*simnet.Node) func(pipe.Conn) pipe.Handler) (*simnet.Network, *simnet.Node, *pipe.Mux) {
	t.Helper()
	n := simnet.New(1)
	a := n.MustAddNode("src", l.src)
	b := n.MustAddNode("dst", l.dst)
	epA, errA := a.Endpoint("xfer")
	epB, errB := b.Endpoint("xfer")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	src := pipe.NewMux(a, epA, pipe.Options{})
	pipe.NewMux(b, epB, pipe.Options{Serve: serve(b)})
	return n, a, src
}

// timeOneMessage is how long one acknowledged pipe message of payload bytes,
// charged size, takes to return from Send over l.
func timeOneMessage(t *testing.T, l cleanLink, payload, size int) time.Duration {
	t.Helper()
	closeAll := func(conn pipe.Conn, _ pipe.Event) { conn.Close() }
	n, _, src := newCleanWorld(t, l, func(*simnet.Node) func(pipe.Conn) pipe.Handler {
		return func(pipe.Conn) pipe.Handler { return handlerFunc(closeAll) }
	})
	var took time.Duration
	n.Run(func() {
		conn, _ := src.Dial("dst/xfer")
		defer conn.Close()
		start := n.Now()
		if err := conn.SendSized(make([]byte, payload), size); err != nil {
			t.Errorf("send: %v", err)
		}
		took = n.Now().Sub(start)
	})
	return took
}

// TestCleanLinkTransferClosedForm holds the network model to two closed
// forms on a clean link, to the nanosecond. With L the path latency and
// tx(n) the serialization time of n bytes at the path bandwidth:
//
//   - One acknowledged pipe message of n payload bytes, charged size S,
//     completes tx(dataFrame(1, n, S)) + L + tx(ackFrame(1)) + L after Send.
//   - Every later step of a transfer is one turn: a data frame lands, its
//     side's mux acknowledges it, and the reply leaves behind that ack, so
//     the reply lands tx(ackFrame) + tx(dataFrame) + L after. A k-part
//     stop-and-wait Send is the petition's one-way trip, then the petition
//     ack, then a turn for each part and each part ack; each frame's size
//     is that of its encoding, instants included.
func TestCleanLinkTransferClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(12))
	for trial := 0; trial < 200; trial++ {
		l := randomCleanLink(rng)
		L := l.latency()

		payload := rng.Intn(1000)
		size := payload + rng.Intn(1<<20)
		took := timeOneMessage(t, l, payload, size)
		if want := l.tx(dataFrame(1, payload, size)) + L + l.tx(ackFrame(1)) + L; took != want {
			t.Fatalf("trial %d: %d-byte message (charged %d) over %+v: acknowledged after %v, closed form %v",
				trial, payload, size, l, took, want)
		}

		k := 1 + rng.Intn(32)
		file := NewVirtualFile("f.bin", k+rng.Intn(4*Mb), rng.Int63())
		n, a, src := newCleanWorld(t, l, func(b *simnet.Node) func(pipe.Conn) pipe.Handler { return Receiver(b, nil) })
		s := NewSender(a, src)
		var m Metrics
		var err error
		n.Run(func() { err = s.Send("dst/xfer", file, k, &m) })
		if err != nil {
			t.Fatalf("trial %d: send: %v", trial, err)
		}

		// turn: data frame seq, a reply of payload bytes (charged size),
		// leaves behind the ack of the peer's seq acked and lands L later.
		turn := func(at time.Time, acked, seq uint64, payload, size int) time.Time {
			return at.Add(l.tx(ackFrame(acked)) + l.tx(dataFrame(seq, payload, size)) + L)
		}
		t0 := vtime.Epoch
		pet := petition{FileName: file.Name, Checksum: file.Checksum(), TotalSize: file.Size,
			Parts: k, Sender: "src"}
		received := t0.Add(l.tx(dataFrame(1, len(wire.Frame(msgPetition, pet.encodeTo)), 0)) + L)
		pa := wire.Frame(msgPetitionAck, petitionAck{Accept: true, ReceivedAt: received}.encodeTo)
		at := turn(received, 1, 1, len(pa), 0)
		want := Metrics{PetitionSent: t0, PetitionReceived: received, PetitionAcked: at}
		split, _ := Split(file, k)
		for i, p := range split {
			seq := uint64(2 + i)
			pt := PartTiming{Index: i, Size: p.Size, Started: at}
			hdr := wire.Frame(msgPart, Part{Index: i, Offset: p.Offset, Size: p.Size}.encodeTo)
			pt.Delivered = turn(at, seq-1, seq, len(hdr), p.Size)
			ack := wire.Frame(msgPartAck, partAck{Index: i, OK: true, DeliveredAt: pt.Delivered}.encodeTo)
			pt.Confirmed = turn(pt.Delivered, seq, seq, len(ack), 0)
			at = pt.Confirmed
			want.Parts = append(want.Parts, pt)
		}
		want.Done = at
		got := Metrics{PetitionSent: m.PetitionSent, PetitionReceived: m.PetitionReceived,
			PetitionAcked: m.PetitionAcked, Parts: m.Parts, Done: m.Done}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("trial %d: %d parts of %d bytes over %+v:\ngot  %+v\nwant %+v", trial, k, file.Size, l, got, want)
		}
	}
}

// TestDegradedLinkMessageClosedForm holds the size degradation that Fig 5 is
// calibrated on to the clean-link form, to the nanosecond. On a link clean
// but for DegradeRefBytes and DegradeExp at both ends, a frame of n bytes
// serializes at B / (1 + (n/ref)^exp), the path bandwidth B slowed by the
// receiving end's degradation, so one acknowledged message of charged size S
// completes txd(dataFrame(S)) + L + txd(ackFrame) + L after Send.
func TestDegradedLinkMessageClosedForm(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		l := randomCleanLink(rng)
		ref, exp := 1e5+rng.Float64()*100e6, 0.5+2*rng.Float64()
		payload := rng.Intn(1000)
		size := payload + rng.Intn(4<<20)
		data := dataFrame(1, payload, size)
		// The message's degraded rate keeps the clean link's floor of
		// 2 × MinRate, so no retransmission timer fires.
		slowdown := 1 + math.Pow(float64(data)/ref, exp)
		for _, end := range []*simnet.Profile{&l.src, &l.dst} {
			end.Bandwidth *= slowdown
			end.DegradeRefBytes, end.DegradeExp = ref, exp
		}
		txd := func(n int) time.Duration {
			bw := min(l.src.Bandwidth, l.dst.Bandwidth) / (1 + math.Pow(float64(n)/ref, exp))
			return time.Duration(float64(n) / bw * float64(time.Second))
		}
		took := timeOneMessage(t, l, payload, size)
		if want := txd(data) + l.latency() + txd(ackFrame(1)) + l.latency(); took != want {
			t.Fatalf("trial %d: %d-byte message (charged %d) over %+v: acknowledged after %v, closed form %v",
				trial, payload, size, l, took, want)
		}
	}
}
