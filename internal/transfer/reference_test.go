package transfer

import (
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// refHandle is the receiver written the plainest way: the announced parts
// as a list (every position of the split for a whole file, the named ones
// for a piece list, which is refused if it names one outside the split or
// twice), the arrived parts as another, and every question a linear scan of
// the two. A part is accepted when it was announced and has not arrived yet;
// the transfer expects as many parts as were announced.
func refHandle(host transport.Host, conn pipe.Conn, onFile func(Received)) {
	defer conn.Close()
	first, err := recvWithin(conn, partTimeout)
	if err != nil {
		return
	}
	in, err := decodePetition(first.Payload, nil)
	if err != nil {
		return
	}
	ack := petitionAck{Accept: true, ReceivedAt: host.Now()}
	if in.Parts < 0 || in.Parts > maxParts {
		ack.Accept, ack.Reason = false, fmt.Sprintf("part count %d outside [0, %d]", in.Parts, maxParts)
	}
	for n, i := range in.Indices {
		if ack.Accept && (i < 0 || i >= in.Parts || slices.Contains(in.Indices[:n], i)) {
			ack.Accept, ack.Reason = false, fmt.Sprintf("piece list names part %d of %d twice or outside the split", i, in.Parts)
		}
	}
	if conn.Send(wire.Frame(msgPetitionAck, ack.encodeTo)) != nil || !ack.Accept {
		return
	}
	announced := in.Indices
	if announced == nil {
		for i := 0; i < in.Parts; i++ {
			announced = append(announced, i)
		}
	}
	partSize := in.TotalSize
	if in.Parts > 0 {
		partSize = in.TotalSize / in.Parts
	}
	wait := partTimeout + time.Duration(10*float64(partSize)/pipe.MinRate*float64(time.Second))
	var arrived []Part
	for len(arrived) < len(announced) {
		msg, err := recvWithin(conn, wait)
		if err != nil {
			return
		}
		kind, d, err := wire.Tag(msg.Payload)
		if err != nil || kind != msgPart {
			return
		}
		ph, err := decodePart(d)
		if err != nil {
			return
		}
		ok := slices.Contains(announced, ph.Index) &&
			!slices.ContainsFunc(arrived, func(p Part) bool { return p.Index == ph.Index })
		pa := partAck{Index: ph.Index, OK: ok, DeliveredAt: host.Now()}
		if !ok {
			pa.Reason = fmt.Sprintf("unexpected part %d of %d", ph.Index, len(announced))
		}
		if conn.Send(wire.Frame(msgPartAck, pa.encodeTo)) != nil || !ok {
			return
		}
		arrived = append(arrived, Part{Index: ph.Index, Offset: ph.Offset, Size: ph.Size, Data: ph.Data})
	}
	if in.Indices != nil {
		return
	}
	slices.SortFunc(arrived, func(a, b Part) int { return a.Index - b.Index })
	f, err := Join(in.FileName, in.TotalSize, arrived)
	onFile(Received{
		Sender:   in.Sender,
		File:     f,
		Verified: err == nil && (f.Data == nil || f.Checksum() == in.Checksum),
	})
}

// receiverStep is one frame the driver sends after the petition, after
// sleeping gap.
type receiverStep struct {
	gap   time.Duration
	frame []byte
	size  int
}

// receiverProgram is one conn's worth of input to a receiver.
type receiverProgram struct {
	petition []byte
	whole    bool // a whole-file petition: its refusal texts are compared too
	steps    []receiverStep
}

// genReceiverProgram draws a petition — a whole file of up to 32 parts, a
// piece list with repeats and out-of-range indices, or a part count outside
// [0, maxParts] — and the parts that follow it: the announced ones shuffled,
// some dropped (the receiver's per-part wait ends the transfer), some
// repeated, strangers mixed in, now and then a long silence or a frame that
// is not a part.
func genReceiverProgram(rng *rand.Rand) receiverProgram {
	var f File
	if rng.Intn(2) == 0 {
		f = NewVirtualFile("v.bin", 1+rng.Intn(64<<10), rng.Int63())
	} else {
		data := make([]byte, 1+rng.Intn(256))
		rng.Read(data)
		f = NewFile("r.bin", data)
	}
	split, _ := Split(f, 1+rng.Intn(32))
	pet := petition{FileName: f.Name, Checksum: f.Checksum(), TotalSize: f.Size,
		Parts: len(split), Sender: "src"}
	if rng.Intn(3) == 0 {
		pet.Indices = make([]int, 1+rng.Intn(len(split)))
		for i := range pet.Indices {
			pet.Indices[i] = rng.Intn(len(split)+4) - 2
		}
	}
	if rng.Intn(8) == 0 {
		pet.Parts = [...]int{-1, -5, maxParts + 1, 1 << 30}[rng.Intn(4)]
	}
	prog := receiverProgram{petition: wire.Frame(msgPetition, pet.encodeTo), whole: pet.Indices == nil}

	order := slices.Clone(pet.Indices)
	if order == nil {
		for i := range split {
			order = append(order, i)
		}
	}
	rng.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
	if len(order) > 0 && rng.Intn(4) == 0 {
		i := rng.Intn(len(order))
		order = slices.Delete(order, i, i+1)
	}
	for range rng.Intn(3) {
		order = slices.Insert(order, rng.Intn(len(order)+1), rng.Intn(len(split)+6)-3)
	}
	if len(order) > 0 && rng.Intn(3) == 0 {
		order = slices.Insert(order, rng.Intn(len(order)+1), order[rng.Intn(len(order))])
	}
	for _, i := range order {
		p := Part{Index: i, Offset: rng.Intn(100), Size: 1 + rng.Intn(100)}
		if i >= 0 && i < len(split) {
			p = split[i]
		}
		st := receiverStep{frame: wire.Frame(msgPart, Part{Index: p.Index, Offset: p.Offset, Size: p.Size, Data: p.Data}.encodeTo), size: p.Size}
		switch rng.Intn(24) {
		case 0:
			st.gap = partTimeout + time.Hour
		case 1, 2, 3:
			st.gap = time.Duration(rng.Intn(5000)) * time.Millisecond
		case 4:
			st.frame = wire.Frame(msgPetitionAck, petitionAck{Accept: true}.encodeTo)
		}
		prog.steps = append(prog.steps, st)
	}
	return prog
}

// receiverOutcome is what a program observes of a receiver: the petition
// ack, every part ack (index, ok, and for a whole file the reason),
// the instant the receiver's FIN (or the conn's break) ended what the
// sending side reads, and the OnFile call. A piece
// refusal's reason is not compared, and its length moves the close instant
// by the ack's serialization time, so that instant is not compared either.
type receiverOutcome struct {
	acks          []string
	closed        time.Duration
	pieceRejected bool
	file          string
}

func (o receiverOutcome) String() string {
	closed := fmt.Sprint("closed at ", o.closed)
	if o.pieceRejected {
		closed = "closed after a piece refusal"
	}
	return fmt.Sprintf("acks:\n\t%s\n%s\nfile %s", strings.Join(o.acks, "\n\t"), closed, o.file)
}

// runReceiverProgram plays prog against the receiver serve stands on a fresh
// two-node world's dst endpoint.
func runReceiverProgram(prog receiverProgram, serve func(transport.Host, transport.Endpoint, func(Received))) receiverOutcome {
	n := simnet.New(11)
	a := n.MustAddNode("src", fastProfile())
	b := n.MustAddNode("dst", fastProfile())
	epA, _ := a.Endpoint("xfer")
	epB, _ := b.Endpoint("xfer")
	src := pipe.NewMux(a, epA, pipe.Options{})
	t0 := n.Now()
	out := receiverOutcome{file: "none"}
	serve(b, epB, func(rc Received) { out.file = fmt.Sprintf("%+v at %v", rc, b.Now().Sub(t0)) })
	n.Run(func() {
		conn, err := src.Dial("dst/xfer")
		if err != nil {
			out.acks = append(out.acks, "dial: "+err.Error())
			return
		}
		defer conn.Close()
		done := a.NewQueue()
		a.Go(func() {
			defer done.Push(nil)
			for {
				msg, err := conn.Recv()
				if err != nil {
					out.closed = a.Now().Sub(t0)
					return
				}
				kind, d, _ := wire.Tag(msg.Payload)
				switch kind {
				case msgPetitionAck:
					ack, err := decodePetitionAck(d)
					out.acks = append(out.acks, fmt.Sprintf("petition accept=%v reason=%q err=%v", ack.Accept, ack.Reason, err))
				case msgPartAck:
					pa, err := decodePartAck(d)
					if !prog.whole {
						pa.Reason, out.pieceRejected = "", out.pieceRejected || !pa.OK
					}
					out.acks = append(out.acks, fmt.Sprintf("part %d ok=%v reason=%q err=%v", pa.Index, pa.OK, pa.Reason, err))
				default:
					out.acks = append(out.acks, fmt.Sprintf("kind %d", kind))
				}
			}
		})
		if conn.Send(prog.petition) == nil {
			for _, st := range prog.steps {
				if st.gap > 0 {
					a.Sleep(st.gap)
				}
				if conn.SendSized(st.frame, st.size) != nil {
					break
				}
			}
		}
		done.Pop()
	})
	return out
}

// realReceiver stands the package's Receiver on ep.
func realReceiver(host transport.Host, ep transport.Endpoint, onFile func(Received)) {
	pipe.NewMux(host, ep, pipe.Options{Serve: Receiver(host, onFile)})
}

// refReceiver serves every conn a mux on ep accepts with refHandle, each in
// a process of its own started in accept order.
func refReceiver(host transport.Host, ep transport.Endpoint, onFile func(Received)) {
	mux := pipe.NewMux(host, ep, pipe.Options{})
	host.Go(func() {
		for {
			conn, err := mux.Accept()
			if err != nil {
				return
			}
			host.Go(func() { refHandle(host, conn, onFile) })
		}
	})
}

func checkReceiverProgram(seed int64) (receiverOutcome, error) {
	prog := genReceiverProgram(rand.New(rand.NewSource(seed)))
	got := runReceiverProgram(prog, realReceiver)
	want := runReceiverProgram(prog, refReceiver)
	if got.String() != want.String() {
		return got, fmt.Errorf("seed %d: receiver\n%v\nreference\n%v", seed, got, want)
	}
	return got, nil
}

// TestReceiverMatchesReference plays seeded programs against the Receiver
// and against refHandle over identical worlds and compares what the sending
// side observes, the instant the conn closes and the delivered file. The
// programs must reach every ending: a delivered file, a refused petition, a
// rejected part and a per-part timeout.
func TestReceiverMatchesReference(t *testing.T) {
	programs := 2000
	if testing.Short() {
		programs = 200
	}
	var delivered, refused, rejected, timedOut int
	for seed := int64(1); seed <= int64(programs); seed++ {
		out, err := checkReceiverProgram(seed)
		if err != nil {
			t.Fatal(err)
		}
		last := ""
		if len(out.acks) > 0 {
			last = out.acks[len(out.acks)-1]
		}
		switch {
		case out.file != "none":
			delivered++
		case strings.Contains(last, "accept=false"):
			refused++
		case strings.Contains(last, "ok=false"):
			rejected++
		case out.closed > partTimeout:
			timedOut++
		}
	}
	t.Logf("%d programs: delivered %d, refused %d, rejected %d, timed out %d", programs, delivered, refused, rejected, timedOut)
	if delivered == 0 || refused == 0 || rejected == 0 || timedOut == 0 {
		t.Fatalf("programs reached delivered %d, refused %d, rejected %d, timed out %d: each must be reached",
			delivered, refused, rejected, timedOut)
	}
}

func FuzzReceiverMatchesReference(f *testing.F) {
	for seed := int64(1); seed <= 4; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		if _, err := checkReceiverProgram(seed); err != nil {
			t.Fatal(err)
		}
	})
}
