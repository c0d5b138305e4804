package transfer

import (
	"errors"
	"fmt"
	"slices"
	"sync/atomic"
	"time"

	"peerlab/internal/pipe"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
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

// MaxPieces bounds the piece count of a dissemination: a workload's pieces=
// option and the indices a piece report may name.
const MaxPieces = 1024

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
	if err := conn.Send(pet.encode()); err != nil {
		return fmt.Errorf("%w: petition: %w", ErrFailed, err)
	}
	ackMsg, err := conn.RecvTimeout(petitionTimeout)
	if err != nil {
		return fmt.Errorf("%w: waiting petition ack: %v", ErrFailed, err)
	}
	kind, d, err := wire.Tag(ackMsg.Payload)
	if err != nil || kind != msgPetitionAck {
		return fmt.Errorf("%w: unexpected reply %d to petition", ErrFailed, kind)
	}
	ack, err := decodePetitionAck(d)
	if err != nil {
		return fmt.Errorf("%w: petition ack: %v", ErrFailed, err)
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
// failed. Streamed, every part gets its own sending process, spawned in
// slice order, while the calling process collects the confirmations in
// whatever order the parts land. The receiver cannot tell the two apart: it
// confirms each part as it arrives either way.
func (s *Sender) stream(conn pipe.Conn, id uint64, parts []Part, streamed bool) ([]PartTiming, error) {
	timings := make([]PartTiming, len(parts))
	if !streamed {
		for n, p := range parts {
			err := s.sendPart(conn, id, p, &timings[n])
			if err == nil {
				err = s.awaitAck(conn, timings[n:n+1])
			}
			if err != nil {
				return timings[:n+1], err
			}
		}
		return timings, nil
	}
	sendErrs := s.host.NewQueue()
	for n, p := range parts {
		s.host.Go(func() {
			if err := s.sendPart(conn, id, p, &timings[n]); err != nil {
				sendErrs.Push(err)
			}
		})
	}
	for range parts {
		if err := s.awaitAck(conn, timings); err != nil {
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
func (s *Sender) sendPart(conn pipe.Conn, id uint64, p Part, pt *PartTiming) error {
	*pt = PartTiming{Index: p.Index, Size: p.Size, Started: s.host.Now()}
	hdr := partHeader{
		TransferID: id,
		Index:      p.Index,
		Offset:     p.Offset,
		Size:       p.Size,
		Data:       p.Data,
	}
	if err := conn.SendSized(wire.Frame(msgPart, hdr.encodeTo), p.Size); err != nil {
		return fmt.Errorf("%w: part %d: %v", ErrFailed, p.Index, err)
	}
	return nil
}

// awaitAck waits for the next part confirmation and stamps the part it
// confirms. One rule holds whatever the pacing: an ack confirms a part of
// window that was sent and is not yet confirmed, so each part is confirmed
// once. Stop-and-wait passes the one part in flight. A failure names the
// first part of window still unconfirmed.
func (s *Sender) awaitAck(conn pipe.Conn, window []PartTiming) error {
	first := slices.IndexFunc(window, func(pt PartTiming) bool { return pt.Confirmed.IsZero() })
	reply, err := conn.RecvTimeout(partAckTimeout)
	if err != nil {
		return fmt.Errorf("%w: waiting ack for part %d: %v", ErrFailed, window[first].Index, err)
	}
	kind, d, err := wire.Tag(reply.Payload)
	if err != nil || kind != msgPartAck {
		return fmt.Errorf("%w: unexpected reply %d to part %d", ErrFailed, kind, window[first].Index)
	}
	pa, err := decodePartAck(d)
	if err != nil {
		return fmt.Errorf("%w: part ack: %v", ErrFailed, err)
	}
	slot := slices.IndexFunc(window, func(pt PartTiming) bool {
		return pt.Index == pa.Index && !pt.Started.IsZero() && pt.Confirmed.IsZero()
	})
	if !pa.OK || slot < 0 {
		return fmt.Errorf("%w: receiver rejected part %d: %s", ErrFailed, pa.Index, pa.Reason)
	}
	window[slot].Delivered = pa.DeliveredAt
	window[slot].Confirmed = s.host.Now()
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

	// One set holds the parts announced and not yet arrived: every position
	// of a whole file's split, or the positions a piece list names. Parts
	// sizes it and the reassembly buffer and comes straight off the wire:
	// refuse a count no sender of ours produces before allocating, and a
	// piece list naming a position outside the split or twice.
	whole, expected := in.Indices == nil, len(in.Indices)
	if whole {
		expected = in.Parts
	}
	accept, reason := true, ""
	var pending map[int]bool
	if in.Parts < 0 || in.Parts > maxParts {
		accept, reason = false, fmt.Sprintf("part count %d outside [0, %d]", in.Parts, maxParts)
	} else {
		pending = make(map[int]bool, expected)
	}
	for n := 0; accept && n < expected; n++ {
		i := n
		if !whole {
			i = in.Indices[n]
		}
		if accept = i >= 0 && i < in.Parts && !pending[i]; !accept {
			reason = fmt.Sprintf("piece list names part %d of %d twice or outside the split", i, in.Parts)
		}
		pending[i] = true
	}
	ack := petitionAck{TransferID: in.TransferID, Accept: accept, Reason: reason, ReceivedAt: receivedAt}
	if err := conn.Send(wire.Frame(msgPetitionAck, ack.encodeTo)); err != nil || !accept {
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

	// Parts are taken in any order (a streaming sender's may land
	// interleaved), one per announced entry; each is acknowledged as it
	// arrives, and one that is not in the set rejects the transfer.
	start := r.host.Now()
	var parts []Part
	if whole {
		parts = make([]Part, expected)
	}
	for i := range expected {
		msg, err := conn.RecvTimeout(perPart)
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
		pa := partAck{
			TransferID:  in.TransferID,
			Index:       ph.Index,
			OK:          pending[ph.Index],
			DeliveredAt: r.host.Now(),
			Ready:       i+1 < expected,
		}
		if !pa.OK {
			pa.Reason = fmt.Sprintf("unexpected part %d of %d", ph.Index, expected)
		}
		if err := conn.Send(wire.Frame(msgPartAck, pa.encodeTo)); err != nil || !pa.OK {
			return
		}
		delete(pending, ph.Index)
		if whole {
			parts[ph.Index] = Part{Index: ph.Index, Offset: ph.Offset, Size: ph.Size, Data: ph.Data}
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
