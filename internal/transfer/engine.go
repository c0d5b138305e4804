package transfer

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"peerlab/internal/pipe"
	"peerlab/internal/transport"
)

// Errors reported by the transfer engine.
var (
	ErrRejected = errors.New("transfer: petition rejected")
	ErrFailed   = errors.New("transfer: transfer failed")
)

// petitionTimeout bounds a sender's wait for the petition ack: the petition
// itself is tiny, and only wake lag delays it.
const petitionTimeout = 5 * time.Minute

// partAckTimeout bounds a sender's wait for each part ack: longer than the
// pipe's worst-case retransmission cycle, so pipe-level recovery gets its
// chance first.
const partAckTimeout = 45 * time.Minute

// partTimeout bounds a receiver's wait for the petition and, stretched by the
// part's serialization time at pipe.MinRate, for each part.
const partTimeout = 60 * time.Minute

// maxParts is the largest part count a Receiver accepts in a petition. It
// covers every granularity a scenario or sweep spec can name (the sweep
// grammar's axis bound is 1_000_000) and caps what a few petition bytes can
// make the receiver allocate.
const maxParts = 1 << 20

// PartTiming records one part's lifecycle as observed by the sender, plus
// the receiver-reported delivery instant.
type PartTiming struct {
	Index     int
	Size      int
	Started   time.Time // sender began transmitting
	Delivered time.Time // receiver-local delivery time (from the part ack)
	Confirmed time.Time // sender received the application-level ack
}

// Metrics is the full timing record of one transfer; the experiment harness
// derives every figure's series from these.
type Metrics struct {
	TransferID  uint64
	Peer        string
	FileName    string
	TotalBytes  int
	Granularity int

	PetitionSent     time.Time
	PetitionReceived time.Time // receiver-local, from the petition ack
	PetitionAcked    time.Time // sender-local
	Parts            []PartTiming
	Done             time.Time
	Failed           bool

	// Attempts counts the transmission launches this record is the survivor
	// of: 1 for a first-launch success, up to the relaunch budget when the
	// pipe layer abandoned earlier launches outright. Sender.Send always
	// reports 1; the relaunch loop (internal/workload.SendRelaunched)
	// overwrites it with the real count.
	Attempts int
}

// PetitionDelay is the paper's Figure 2 quantity: how long the peer took to
// receive the petition. It is 0 when the petition was never acknowledged.
func (m Metrics) PetitionDelay() time.Duration {
	if m.PetitionReceived.IsZero() {
		return 0
	}
	return m.PetitionReceived.Sub(m.PetitionSent)
}

// TransmissionTime covers first part transmission through last confirmation
// (Figures 3 and 5). It is 0 when the last part was never confirmed.
func (m Metrics) TransmissionTime() time.Duration {
	if len(m.Parts) == 0 || m.Parts[len(m.Parts)-1].Confirmed.IsZero() {
		return 0
	}
	return m.Parts[len(m.Parts)-1].Confirmed.Sub(m.Parts[0].Started)
}

// LastMbTime estimates the paper's Figure 4 quantity: the time to receive
// the final Mb. Parts arrive as units, so the final part's service time is
// scaled to one Mb (plus the confirmation round-trip actually observed).
func (m Metrics) LastMbTime() time.Duration {
	if len(m.Parts) == 0 {
		return 0
	}
	last := m.Parts[len(m.Parts)-1]
	service := max(last.Delivered.Sub(last.Started), 0)
	frac := 1.0
	if last.Size > Mb {
		frac = float64(Mb) / float64(last.Size)
	}
	confirm := max(last.Confirmed.Sub(last.Delivered), 0)
	return time.Duration(float64(service)*frac) + confirm
}

// Sender transmits files to receivers over a pipe mux.
type Sender struct {
	host   transport.Host
	mux    *pipe.Mux
	nextID atomic.Uint64
}

// NewSender returns a sender using the mux for outbound transfers.
func NewSender(host transport.Host, mux *pipe.Mux) *Sender {
	return &Sender{host: host, mux: mux}
}

// Send transmits f to the remote transfer service in `parts` parts,
// following the paper's protocol: petition, wait for the accept, then one
// part at a time, each confirmed before the next is sent. It fills m with
// the full timing record; on error m records everything up to the failure
// with Failed set.
func (s *Sender) Send(remote transport.Addr, f File, parts int, m *Metrics) error {
	s.start(m, remote, f.Name, parts)
	m.TotalBytes = f.Size
	split, err := Split(f, parts)
	if err != nil {
		return err
	}
	return s.transmit(remote, m, f, len(split), nil, split)
}

// SendPieces is Send for the pieces of f named by indices — positions in
// the canonical pieces-way split. Pieces are always streamed: a
// dissemination round batches every piece one holder owes one downloader
// into a single conn, and the per-piece stop-and-wait round-trip is exactly
// the protocol cost a swarm does not pay. Metrics slots follow the order of
// indices; each PartTiming keeps the piece's original index. TotalBytes
// counts only the selected pieces.
func (s *Sender) SendPieces(remote transport.Addr, f File, pieces int, indices []int, m *Metrics) error {
	s.start(m, remote, f.Name, len(indices))
	split, err := Split(f, pieces)
	if err != nil {
		return err
	}
	selected := make([]Part, 0, len(indices))
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= len(split) || seen[idx] {
			return fmt.Errorf("transfer: piece index %d invalid for %d-piece split of %q", idx, len(split), f.Name)
		}
		seen[idx] = true
		selected = append(selected, split[idx])
		m.TotalBytes += split[idx].Size
	}
	if len(selected) == 0 {
		return fmt.Errorf("transfer: no pieces selected for %q", f.Name)
	}
	return s.transmit(remote, m, f, len(split), indices, selected)
}

// start resets m to a new transmission's record, failed until transmit
// completes it.
func (s *Sender) start(m *Metrics, remote transport.Addr, fileName string, granularity int) {
	*m = Metrics{
		TransferID:  s.nextID.Add(1),
		Peer:        remote.Node(),
		FileName:    fileName,
		Granularity: granularity,
		Failed:      true,
		Attempts:    1,
	}
}

// transmit is the one path every transmission takes: a fresh conn, the
// handshake, then parts — split's, or those of them indices names, in that
// order — through the part stream. The call decides the mode: the whole
// file (indices nil, Send) goes stop-and-wait, a selection (SendPieces)
// streams.
func (s *Sender) transmit(remote transport.Addr, m *Metrics, f File, split int, indices []int, parts []Part) error {
	conn, err := s.mux.Dial(remote)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFailed, err)
	}
	defer conn.Close()
	m.PetitionSent = s.host.Now()
	pet := petition{
		TransferID: m.TransferID,
		FileName:   f.Name,
		Checksum:   f.Checksum(),
		TotalSize:  f.Size,
		Parts:      split,
		Indices:    indices,
		Sender:     s.host.Name(),
		SentAt:     m.PetitionSent,
	}
	if err = s.handshake(conn, m, &pet); err == nil {
		m.Parts, err = s.stream(conn, m.TransferID, parts, indices != nil)
	}
	if err != nil {
		return err
	}
	m.Done, m.Failed = s.host.Now(), false
	return nil
}

// handshake sends the petition and waits for the receiver's decision,
// stamping the petition instants as they become known. A refusal is
// ErrRejected; everything else that goes wrong is ErrFailed.
func (s *Sender) handshake(conn pipe.Conn, m *Metrics, pet *petition) error {
	what := "petition"
	if pet.Indices != nil {
		what = "piece petition"
	}
	if err := conn.Send(pet.encode()); err != nil {
		return fmt.Errorf("%w: %s: %w", ErrFailed, what, err)
	}
	ackMsg, err := conn.RecvTimeout(petitionTimeout)
	if err != nil {
		return fmt.Errorf("%w: waiting %s ack: %v", ErrFailed, what, err)
	}
	kind, d, err := decodeKind(ackMsg.Payload)
	if err != nil || kind != msgPetitionAck {
		return fmt.Errorf("%w: unexpected reply %d to %s", ErrFailed, kind, what)
	}
	ack, err := decodePetitionAck(d)
	if err != nil {
		return fmt.Errorf("%w: %s ack: %v", ErrFailed, what, err)
	}
	m.PetitionAcked = s.host.Now()
	m.PetitionReceived = ack.ReceivedAt
	if !ack.Accept {
		return fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}
	return nil
}

// stream is the part stream. Stop-and-wait is the paper's protocol: the
// calling process sends one part at a time and waits for its confirmation
// before the next leaves; on failure the timings stop at the part that
// failed. Streamed, every part gets its own sending process (the pipe's
// Send blocks until the peer's pipe-level acknowledgment, so filling its
// window takes concurrency), spawned in slice order, while the calling
// process collects the confirmations in whatever order the parts landed.
// The receiver cannot tell the two apart: it confirms each part as it
// arrives either way.
func (s *Sender) stream(conn pipe.Conn, id uint64, parts []Part, streamed bool) ([]PartTiming, error) {
	timings := make([]PartTiming, len(parts))
	if !streamed {
		for n, p := range parts {
			err := s.sendPart(conn, id, p, &timings[n], "part")
			if err == nil {
				err = s.awaitAck(conn, timings, nil, n)
			}
			if err != nil {
				return timings[:n+1], err
			}
		}
		return timings, nil
	}
	// Acks carry original part indices; map them back to timing slots.
	slotOf := make(map[int]int, len(parts))
	sendErrs := s.host.NewQueue()
	for slot, p := range parts {
		slotOf[p.Index] = slot
		s.host.Go(func() {
			if err := s.sendPart(conn, id, p, &timings[slot], "piece"); err != nil {
				sendErrs.Push(err)
			}
		})
	}
	for confirmed := range parts {
		if err := s.awaitAck(conn, timings, slotOf, confirmed); err != nil {
			// A send failure is the likelier root cause than the ack silence
			// that follows it; surface it when one has been reported.
			if sendErrs.Len() > 0 {
				if v, perr := sendErrs.Pop(); perr == nil {
					return timings, v.(error)
				}
			}
			return timings, err
		}
	}
	return timings, nil
}

// sendPart puts one part on the wire, stamping when it started.
func (s *Sender) sendPart(conn pipe.Conn, id uint64, p Part, pt *PartTiming, noun string) error {
	*pt = PartTiming{Index: p.Index, Size: p.Size, Started: s.host.Now()}
	hdr := partHeader{
		TransferID: id,
		Index:      p.Index,
		Offset:     p.Offset,
		Size:       p.Size,
		Data:       p.Data,
	}
	if err := conn.SendSized(frame(msgPart, hdr.encodeTo), p.Size); err != nil {
		return fmt.Errorf("%w: %s %d: %v", ErrFailed, noun, p.Index, err)
	}
	return nil
}

// awaitAck waits for the next part confirmation and stamps the slot it
// confirms. A stop-and-wait sender (slotOf nil) is blocked on slot n and
// takes a confirmation of that part only; a streaming one has n
// confirmations in and takes any part slotOf knows.
func (s *Sender) awaitAck(conn pipe.Conn, timings []PartTiming, slotOf map[int]int, n int) error {
	noun := "part"
	if slotOf != nil {
		noun = "piece"
	}
	reply, err := conn.RecvTimeout(partAckTimeout)
	if err != nil {
		if slotOf != nil {
			return fmt.Errorf("%w: waiting piece acks (%d/%d): %v", ErrFailed, n, len(timings), err)
		}
		return fmt.Errorf("%w: waiting ack for part %d: %v", ErrFailed, timings[n].Index, err)
	}
	kind, d, err := decodeKind(reply.Payload)
	if err != nil || kind != msgPartAck {
		if slotOf != nil {
			return fmt.Errorf("%w: unexpected reply %d while awaiting piece acks", ErrFailed, kind)
		}
		return fmt.Errorf("%w: unexpected reply %d to part %d", ErrFailed, kind, timings[n].Index)
	}
	pa, err := decodePartAck(d)
	if err != nil {
		return fmt.Errorf("%w: %s ack: %v", ErrFailed, noun, err)
	}
	slot, known := n, pa.Index == timings[n].Index
	if slotOf != nil {
		slot, known = slotOf[pa.Index]
	}
	if !pa.OK || !known {
		return fmt.Errorf("%w: receiver rejected %s %d: %s", ErrFailed, noun, pa.Index, pa.Reason)
	}
	timings[slot].Delivered = pa.DeliveredAt
	timings[slot].Confirmed = s.host.Now()
	return nil
}

// Received describes a completed inbound transfer handed to the receiver's
// callback.
type Received struct {
	TransferID uint64
	Sender     string
	File       File
	Elapsed    time.Duration
	Verified   bool // checksum matched (real files) or structure valid
}

// ReceiverOptions tunes a Receiver.
type ReceiverOptions struct {
	// OnFile is invoked after each completed transfer.
	OnFile func(Received)
}

// Receiver serves inbound transfers on a pipe mux; each transfer runs in its
// own process.
type Receiver struct {
	host transport.Host
	opts ReceiverOptions
}

// NewReceiver returns a receiver serving every conn mux accepts.
func NewReceiver(host transport.Host, mux *pipe.Mux, opts ReceiverOptions) *Receiver {
	r := &Receiver{host: host, opts: opts}
	mux.Serve(r.handle)
	return r
}

// handle serves one transfer conn, whichever petition opens it: admit,
// answer, then receive, validate and confirm each announced part. A whole
// file is reassembled and handed to OnFile; pieces are partial coverage by
// construction, so there is no Join and no callback — the dissemination
// engine owns the piece inventory on the driver side, and the receiver only
// has to pace, validate and confirm.
func (r *Receiver) handle(conn pipe.Conn) {
	defer conn.Close()
	first, err := conn.RecvTimeout(partTimeout)
	if err != nil {
		return
	}
	in, err := decodePetition(first.Payload)
	if err != nil {
		return
	}
	receivedAt := r.host.Now()

	// Parts sizes the reassembly buffers below and comes straight off the
	// wire: refuse a count no sender of ours produces before allocating.
	accept, reason := true, ""
	if in.Parts < 0 || in.Parts > maxParts {
		accept, reason = false, fmt.Sprintf("part count %d outside [0, %d]", in.Parts, maxParts)
	}
	ack := petitionAck{
		TransferID: in.TransferID,
		Accept:     accept,
		Reason:     reason,
		ReceivedAt: receivedAt,
	}
	if err := conn.Send(frame(msgPetitionAck, ack.encodeTo)); err != nil || !accept {
		return
	}

	// The per-part wait must outlive the sender's worst-case retry cycle:
	// a lost copy of a large part costs the sender its serialization time
	// plus a conservative retransmission timeout, several times over.
	// Giving up earlier leaves the sender talking to a dead conn (and the
	// transfer failing long after it could have recovered).
	partSize := in.TotalSize
	if in.Parts > 0 {
		partSize = in.TotalSize / in.Parts
	}
	perPart := partTimeout +
		time.Duration(10*float64(partSize)/pipe.MinRate*float64(time.Second))

	// Parts are accepted in any index order: a stop-and-wait sender delivers
	// them strictly in order, a streaming sender's concurrent part streams
	// may land interleaved. Each valid part is acknowledged as it arrives;
	// an index outside the petition (or a repeat) rejects the transfer. A
	// whole file expects every index of the split, tracked in a bitmap; a
	// piece selection is sparse in a split of up to maxParts, so it is
	// tracked as a set that shrinks.
	start := r.host.Now()
	whole, expected := in.Indices == nil, len(in.Indices)
	var parts []Part
	var got []bool
	var wanted map[int]bool
	if whole {
		expected = in.Parts
		parts = make([]Part, expected)
		got = make([]bool, expected)
	} else {
		wanted = make(map[int]bool, expected)
		for _, i := range in.Indices {
			wanted[i] = true
		}
	}
	for i := 0; i < expected; i++ {
		msg, err := conn.RecvTimeout(perPart)
		if err != nil {
			return
		}
		kind, d, err := decodeKind(msg.Payload)
		if err != nil || kind != msgPart {
			return
		}
		ph, err := decodePart(d)
		if err != nil {
			return
		}
		delivered := r.host.Now()
		ok, why := false, ""
		if whole {
			if ok = ph.Index >= 0 && ph.Index < expected && !got[ph.Index]; !ok {
				why = fmt.Sprintf("unexpected part %d of %d", ph.Index, expected)
			}
		} else if ok = wanted[ph.Index]; !ok {
			why = fmt.Sprintf("unexpected piece %d", ph.Index)
		}
		pa := partAck{
			TransferID:  in.TransferID,
			Index:       ph.Index,
			OK:          ok,
			Reason:      why,
			DeliveredAt: delivered,
			Ready:       i+1 < expected,
		}
		if err := conn.Send(frame(msgPartAck, pa.encodeTo)); err != nil || !ok {
			return
		}
		if whole {
			parts[ph.Index] = Part{Index: ph.Index, Offset: ph.Offset, Size: ph.Size, Data: ph.Data}
			got[ph.Index] = true
		} else {
			delete(wanted, ph.Index)
		}
	}
	if !whole {
		return
	}

	f, err := Join(in.FileName, in.TotalSize, parts)
	verified := err == nil
	if verified && f.Data != nil {
		verified = f.Checksum() == in.Checksum
	}
	if r.opts.OnFile != nil {
		r.opts.OnFile(Received{
			TransferID: in.TransferID,
			Sender:     in.Sender,
			File:       f,
			Elapsed:    r.host.Now().Sub(start),
			Verified:   verified,
		})
	}
}
