package transfer

import (
	"fmt"
	"hash/fnv"
	"testing"

	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/vtime"
	"peerlab/internal/wire"
)

// TestOwnerReturnsWhilePartsSend streams a piece transfer whose receiver
// refuses the first piece it reads, so the owner returns and closes the conn
// while the other pieces' senders are still inside Send, then sends a whole
// file over the same mux. Both transfers, and every pipe frame of the run,
// are pinned: the part senders that outlive their transfer neither send nor
// disturb the next one.
func TestOwnerReturnsWhilePartsSend(t *testing.T) {
	n := simnet.New(11)
	a := n.MustAddNode("src", fastProfile())
	b := n.MustAddNode("dst", fastProfile())
	epA, errA := a.Endpoint("xfer")
	epB, errB := b.Endpoint("xfer")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	// The first conn's receiver accepts the petition, refuses the first
	// part it reads and then reads on until the conn ends; every later
	// conn gets the package's Receiver.
	recv := Receiver(b, nil)
	accepted, read := 0, 0
	scripted := func(conn pipe.Conn, ev pipe.Event) {
		if ev.Err != nil {
			conn.Close()
			return
		}
		_, d, _ := wire.Tag(ev.Msg.Payload)
		switch read++; read {
		case 1:
			conn.Send(wire.Frame(msgPetitionAck, petitionAck{Accept: true, ReceivedAt: b.Now()}.encodeTo))
		case 2:
			hdr, _ := decodePart(d)
			conn.Send(wire.Frame(msgPartAck, partAck{Index: hdr.Index, Reason: "scripted refusal"}.encodeTo))
		}
	}
	muxA := pipe.NewMux(a, epA, pipe.Options{})
	pipe.NewMux(b, epB, pipe.Options{Serve: func(conn pipe.Conn) pipe.Handler {
		if accepted++; accepted > 1 {
			return recv(conn)
		}
		return handlerFunc(scripted)
	}})

	h := fnv.New64a()
	frames := 0
	pipe.SetDebugDispatch(func(local string, kind byte, id, seq, ack uint64, size int) {
		frames++
		fmt.Fprintln(h, n.Now().Sub(vtime.Epoch), local, kind, id, seq, ack, size)
	})
	defer pipe.SetDebugDispatch(nil)

	s := NewSender(a, muxA)
	var got []string
	n.Run(func() {
		pieces := make([]int, 16)
		for i := range pieces {
			pieces[i] = i
		}
		var m Metrics
		err := s.SendPieces("dst/xfer", NewVirtualFile("pieces", 16*Mb, 3), 16, pieces, &m)
		got = append(got, fmt.Sprintf("pieces: %v; failed %v, %d part slots, %v", err, m.Failed, len(m.Parts), n.Now().Sub(vtime.Epoch)))
		err = s.Send("dst/xfer", NewVirtualFile("whole", 2*Mb, 4), 2, &m)
		got = append(got, fmt.Sprintf("whole: %v; failed %v, %d parts, done at %v", err, m.Failed, len(m.Parts), m.Done.Sub(vtime.Epoch)))
	})
	got = append(got, fmt.Sprintf("%d frames, digest %x, quiet at %v", frames, h.Sum64(), n.Now().Sub(vtime.Epoch)))
	want := []string{
		"pieces: transfer: transfer failed: receiver rejected part 0: scripted refusal; failed true, 16 part slots, 5.040145s",
		"whole: <nil>; failed false, 2 parts, done at 8.160311s",
		"29 frames, digest 4aef8a1892f3ccc1, quiet at 8.200323s",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}

// TestStreamedAckSilenceNamesTheWait streams pieces to a receiver that
// accepts the petition and then goes silent, its mux closed without a FIN.
// The part senders are still retransmitting when the ack wait's deadline
// fails them too, and the transfer reports the wait, the root cause, not a
// part's send.
func TestStreamedAckSilenceNamesTheWait(t *testing.T) {
	n := simnet.New(11)
	a := n.MustAddNode("src", fastProfile())
	b := n.MustAddNode("dst", fastProfile())
	epA, errA := a.Endpoint("xfer")
	epB, errB := b.Endpoint("xfer")
	if errA != nil || errB != nil {
		t.Fatal(errA, errB)
	}
	var muxB *pipe.Mux
	muxB = pipe.NewMux(b, epB, pipe.Options{Serve: func(pipe.Conn) pipe.Handler {
		return handlerFunc(func(conn pipe.Conn, ev pipe.Event) {
			if ev.Err == nil {
				conn.Send(wire.Frame(msgPetitionAck, petitionAck{Accept: true, ReceivedAt: b.Now()}.encodeTo))
				muxB.Close()
			}
			conn.Close()
		})
	}})
	s := NewSender(a, pipe.NewMux(a, epA, pipe.Options{}))
	var m Metrics
	var err error
	n.Run(func() {
		// 2 MB pieces: the pipe retransmits each for well over partAckTimeout.
		err = s.SendPieces("dst/xfer", NewVirtualFile("silent", 8*Mb, 5), 4, []int{0, 1, 2, 3}, &m)
	})
	const want = "transfer: transfer failed: waiting ack for part 0: pipe: timeout"
	if err == nil || err.Error() != want {
		t.Fatalf("SendPieces = %v, want %s", err, want)
	}
	if waited := n.Now().Sub(m.PetitionAcked); waited < partAckTimeout {
		t.Fatalf("failed %v after the petition ack, before the %v ack wait ended", waited, partAckTimeout)
	}
}
