package transfer

import (
	"bytes"
	"fmt"
	"sync"
	"testing"
	"time"

	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/sweeptest"
	"peerlab/internal/wire"
)

// transcript is one scenario's world: a sender node, a receiver node, and a
// log of every pipe frame either mux dispatched, stamped with the virtual
// instant it arrived.
type transcript struct {
	net    *simnet.Network
	t0     time.Time
	src    *pipe.Mux
	dst    *pipe.Mux // made once the scenario's setup has run
	dstN   *simnet.Node
	accept func(pipe.Conn) pipe.Handler // dst's Options.Serve, if the setup serves
	sender *Sender
	mu     sync.Mutex
	out    bytes.Buffer
}

// newTranscript builds the two-node world, running setup, if any, before
// dst's mux is made. The frame observer is a package global in pipe, so
// scenarios run one after another, never in parallel.
func newTranscript(t *testing.T, name string, setup func(*transcript)) *transcript {
	t.Helper()
	n := simnet.New(11)
	a := n.MustAddNode("src", fastProfile())
	b := n.MustAddNode("dst", fastProfile())
	epA, err := a.Endpoint("xfer")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("xfer")
	if err != nil {
		t.Fatal(err)
	}
	tr := &transcript{net: n, t0: n.Now(), dstN: b}
	tr.src = pipe.NewMux(a, epA, pipe.Options{})
	tr.sender = NewSender(a, tr.src)
	fmt.Fprintf(&tr.out, "== %s\n", name)
	pipe.SetDebugDispatch(func(local string, kind byte, id, seq, ack uint64, size int) {
		tr.mu.Lock()
		defer tr.mu.Unlock()
		fmt.Fprintf(&tr.out, "%s %s %s id=%d seq=%d ack=%d size=%d\n",
			tr.at(n.Now()), local, [...]string{"?", "data", "ack", "fin"}[kind], id, seq, ack, size)
	})
	if setup != nil {
		setup(tr)
	}
	tr.dst = pipe.NewMux(b, epB, pipe.Options{Serve: tr.accept})
	return tr
}

func (tr *transcript) at(ts time.Time) string {
	if ts.IsZero() {
		return "-"
	}
	return fmt.Sprintf("%.6fs", ts.Sub(tr.t0).Seconds())
}

func (tr *transcript) logf(format string, args ...any) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	fmt.Fprintf(&tr.out, format+"\n", args...)
}

// outcome runs one Send or SendPieces and appends what its caller got back.
func (tr *transcript) outcome(send func(*Metrics) error) {
	var m Metrics
	err := send(&m)
	tr.logf("metrics parts=%d failed=%v attempts=%d bytes=%d granularity=%d petition=%s/%s/%s done=%s",
		len(m.Parts), m.Failed, m.Attempts, m.TotalBytes, m.Granularity,
		tr.at(m.PetitionSent), tr.at(m.PetitionReceived), tr.at(m.PetitionAcked), tr.at(m.Done))
	for slot, pt := range m.Parts {
		tr.logf("  slot %d index=%d size=%d started=%s delivered=%s confirmed=%s",
			slot, pt.Index, pt.Size, tr.at(pt.Started), tr.at(pt.Delivered), tr.at(pt.Confirmed))
	}
	tr.logf("error %v", err)
}

// serve stands the real Receiver on dst.
func (tr *transcript) serve() {
	tr.accept = Receiver(tr.dstN, func(rc Received) {
		tr.logf("%s delivered %q size=%d verified=%v", tr.at(tr.net.Now()), rc.File.Name, rc.File.Size, rc.Verified)
	})
}

// serveFirstPartOnly stands a scripted receiver on dst that accepts the
// petition, confirms the first part it is handed and then goes silent with
// the conn open: the sender's part-ack wait is what ends the transfer.
func (tr *transcript) serveFirstPartOnly() {
	tr.dstN.Go(func() {
		conn, err := tr.dst.Accept()
		if err != nil {
			return
		}
		defer conn.Close()
		if _, err := conn.Recv(); err != nil {
			return
		}
		if conn.Send(wire.Frame(msgPetitionAck, petitionAck{Accept: true, ReceivedAt: tr.dstN.Now()}.encodeTo)) != nil {
			return
		}
		for n := 0; ; n++ {
			msg, err := conn.Recv()
			if err != nil {
				return
			}
			if n > 0 {
				continue
			}
			_, d, _ := wire.Tag(msg.Payload)
			ph, _ := decodePart(d)
			if conn.Send(wire.Frame(msgPartAck, partAck{Index: ph.Index, OK: true, DeliveredAt: tr.dstN.Now()}.encodeTo)) != nil {
				return
			}
		}
	})
}

// raw speaks the protocol by hand against the real Receiver: the
// already-encoded petition, then each of parts in turn. It logs each ack as
// decoded, so the receiver's refusal text is pinned verbatim, and then waits
// up to linger on the open conn for whatever the receiver does next.
func (tr *transcript) raw(petitionFrame []byte, parts []Part, linger time.Duration) {
	conn, err := tr.src.Dial("dst/xfer")
	if err != nil {
		tr.logf("dial: %v", err)
		return
	}
	defer conn.Close()
	if err := conn.Send(petitionFrame); err != nil {
		tr.logf("petition: %v", err)
		return
	}
	msg, err := conn.Recv()
	if err != nil {
		tr.logf("petition ack: %v", err)
		return
	}
	_, d, _ := wire.Tag(msg.Payload)
	ack, err := decodePetitionAck(d)
	tr.logf("petitionAck accept=%v reason=%q received=%s err=%v", ack.Accept, ack.Reason, tr.at(ack.ReceivedAt), err)
	for _, part := range parts {
		if err := conn.SendSized(wire.Frame(msgPart, part.encodeTo), part.Size); err != nil {
			tr.logf("part: %v", err)
			return
		}
		msg, err := conn.Recv()
		if err != nil {
			tr.logf("part ack: %v", err)
			return
		}
		_, d, _ := wire.Tag(msg.Payload)
		pa, err := decodePartAck(d)
		tr.logf("partAck index=%d ok=%v reason=%q delivered=%s err=%v",
			pa.Index, pa.OK, pa.Reason, tr.at(pa.DeliveredAt), err)
	}
	if linger > 0 {
		_, err := recvWithin(conn, linger)
		tr.logf("%s silent sender's wait ends: %v", tr.at(tr.net.Now()), err)
	}
}

// TestTransferTranscript pins the protocol as the wire and the caller see
// it: every frame either side's mux dispatches (virtual instant, local
// address, kind, conn, seq, ack, size), the Metrics Send/SendPieces return
// and the exact error text, over the successful and the failing paths. The
// error and reason strings reach flow records and the frames reach every
// digest, so a change to the engine that moves a line here moved a result.
func TestTransferTranscript(t *testing.T) {
	t.Cleanup(func() { pipe.SetDebugDispatch(nil) })
	file := NewVirtualFile("f.bin", 2*Mb, 5)
	var all bytes.Buffer

	run := func(name string, setup func(*transcript), body func(*transcript)) {
		tr := newTranscript(t, name, setup)
		tr.net.Run(func() { body(tr) })
		all.Write(tr.out.Bytes())
	}
	send := func(parts int) func(*transcript) {
		return func(tr *transcript) {
			tr.outcome(func(m *Metrics) error { return tr.sender.Send("dst/xfer", file, parts, m) })
		}
	}
	sendPieces := func(tr *transcript) {
		tr.outcome(func(m *Metrics) error { return tr.sender.SendPieces("dst/xfer", file, 8, []int{1, 5, 7}, m) })
	}
	accepting := func(tr *transcript) { tr.serve() }
	refusing := func(tr *transcript) { tr.accept = refuseAll(tr.dstN) }
	halfSilent := func(tr *transcript) { tr.serveFirstPartOnly() }
	// down takes dst off the network: src and dst severed both ways.
	down := func(tr *transcript) {
		tr.net.Partition("src", "dst", true)
		tr.net.Partition("dst", "src", true)
	}
	// dying takes dst off the network 200 ms into body.
	dying := func(body func(*transcript)) func(*transcript) {
		return func(tr *transcript) {
			tr.dstN.AfterFunc(200*time.Millisecond, func() { down(tr) })
			body(tr)
		}
	}
	// mute severs dst→src for each span [from, to) of time into body; a
	// span with no end stays severed.
	mute := func(body func(*transcript), spans ...[2]time.Duration) func(*transcript) {
		return func(tr *transcript) {
			for _, sp := range spans {
				tr.dstN.AfterFunc(sp[0], func() { tr.net.Partition("dst", "src", true) })
				if sp[1] > 0 {
					tr.dstN.AfterFunc(sp[1], func() { tr.net.Partition("dst", "src", false) })
				}
			}
			body(tr)
		}
	}

	run("send whole", accepting, send(1))
	run("send 4 parts", accepting, send(4))
	run("send pieces 1,5,7 of 8", accepting, sendPieces)
	run("petition refused", refusing, send(4))
	run("piece petition refused", refusing, sendPieces)
	run("send to dead peer", down, send(1))
	run("send pieces to dead peer", down, sendPieces)
	run("petition never answered", nil, send(1))
	run("piece petition never answered", nil, sendPieces)
	run("part ack times out after part 0 of 4", halfSilent, send(4))
	run("piece acks time out after 1 of 3", halfSilent, sendPieces)
	run("peer dies with part 0 of 4 in flight", accepting, dying(send(4)))
	run("peer dies while pieces stream", accepting, dying(sendPieces))
	run("bad piece indices", accepting, func(tr *transcript) {
		tr.outcome(func(m *Metrics) error { return tr.sender.SendPieces("dst/xfer", file, 8, []int{1, 1}, m) })
		tr.outcome(func(m *Metrics) error { return tr.sender.SendPieces("dst/xfer", file, 8, []int{8}, m) })
		tr.outcome(func(m *Metrics) error { return tr.sender.SendPieces("dst/xfer", file, 8, nil, m) })
		tr.outcome(func(m *Metrics) error { return tr.sender.Send("dst/xfer", file, 0, m) })
	})
	run("receiver rejects a repeated part", accepting, func(tr *transcript) {
		pet := petition{FileName: "f.bin", Checksum: file.Checksum(), TotalSize: file.Size, Parts: 2, Sender: "src"}
		part := Part{Index: 0, Offset: 0, Size: Mb}
		tr.raw(wire.Frame(msgPetition, pet.encodeTo), []Part{part, part}, 0)
	})
	run("receiver rejects a repeated piece", accepting, func(tr *transcript) {
		// The petition frame, field by field: pieces 1 and 5 of 8.
		e := wire.NewEncoder(64)
		e.Byte(msgPetition)
		e.String("f.bin")
		e.String(file.Checksum())
		e.Int(file.Size)
		e.Int(8)
		e.Int(2)
		e.Int(1)
		e.Int(5)
		e.String("src")
		part := Part{Index: 1, Offset: 250_000, Size: 250_000}
		tr.raw(e.Bytes(), []Part{part, part}, 0)
	})
	// The receiver's replies are lost: the first copies of the petition ack
	// in the first span, part 0's ack in the second. It retransmits both.
	run("receiver replies lost and retransmitted", accepting,
		mute(send(4), [2]time.Duration{15 * time.Millisecond, 2 * time.Second}, [2]time.Duration{5 * time.Second, 6 * time.Second}))
	// A sender that stops after part 0 of 4 with its conn open: the
	// receiver's per-part wait ends the transfer with its FIN.
	run("sender goes silent after part 0 of 4", accepting, func(tr *transcript) {
		pet := petition{FileName: "f.bin", Checksum: file.Checksum(), TotalSize: file.Size, Parts: 4, Sender: "src"}
		tr.raw(wire.Frame(msgPetition, pet.encodeTo), []Part{{Index: 0, Offset: 0, Size: file.Size / 4}}, 3*time.Hour)
	})
	// dst→src is severed for good just as the petition lands: the
	// receiver's petition ack runs out of retries and it tears down.
	run("receiver replies cut for good after the petition", accepting,
		mute(send(4), [2]time.Duration{20 * time.Millisecond, 0}))

	sweeptest.Golden(t, "transcript.golden", all.Bytes())
}
