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
	muxA, muxB := pipe.NewMux(a, epA, pipe.Options{}), pipe.NewMux(b, epB, pipe.Options{})
	recv := &Receiver{host: b}
	b.Go(func() {
		for first := true; ; first = false {
			conn, err := muxB.Accept()
			if err != nil {
				return
			}
			if !first {
				b.Go(func() { recv.handle(conn) })
				continue
			}
			b.Go(func() {
				defer conn.Close()
				pet, err := conn.Recv()
				if err != nil {
					return
				}
				_, d, _ := wire.Tag(pet.Payload)
				id := d.Uint64()
				conn.Send(wire.Frame(msgPetitionAck, petitionAck{TransferID: id, Accept: true, ReceivedAt: b.Now()}.encodeTo))
				part, err := conn.Recv()
				if err != nil {
					return
				}
				_, d, _ = wire.Tag(part.Payload)
				hdr, _ := decodePart(d)
				conn.Send(wire.Frame(msgPartAck, partAck{TransferID: id, Index: hdr.Index, Reason: "scripted refusal"}.encodeTo))
				for {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			})
		}
	})

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
		"pieces: transfer: transfer failed: receiver rejected part 0: scripted refusal; failed true, 16 part slots, 5.040156s",
		"whole: <nil>; failed false, 2 parts, done at 8.160335999s",
		"29 frames, digest 4fdf8d485b581aff, quiet at 8.200347999s",
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("got  %s\nwant %s", got[i], want[i])
		}
	}
}
