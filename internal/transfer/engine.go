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

// assumedFloorRate (bytes/second) mirrors the pipe layer's MinRate default:
// the most pessimistic service rate either side plans timeouts around.
const assumedFloorRate = 100_000

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
// receive the petition.
func (m Metrics) PetitionDelay() time.Duration {
	return m.PetitionReceived.Sub(m.PetitionSent)
}

// TransmissionTime covers first part transmission through last confirmation
// (Figures 3 and 5).
func (m Metrics) TransmissionTime() time.Duration {
	if len(m.Parts) == 0 {
		return 0
	}
	return m.Parts[len(m.Parts)-1].Confirmed.Sub(m.Parts[0].Started)
}

// TotalTime covers petition through completion.
func (m Metrics) TotalTime() time.Duration {
	return m.Done.Sub(m.PetitionSent)
}

// LastMbTime estimates the paper's Figure 4 quantity: the time to receive
// the final Mb. Parts arrive as units, so the final part's service time is
// scaled to one Mb (plus the confirmation round-trip actually observed).
func (m Metrics) LastMbTime() time.Duration {
	if len(m.Parts) == 0 {
		return 0
	}
	last := m.Parts[len(m.Parts)-1]
	service := last.Delivered.Sub(last.Started)
	if service < 0 {
		service = 0
	}
	frac := 1.0
	if last.Size > Mb {
		frac = float64(Mb) / float64(last.Size)
	}
	confirm := last.Confirmed.Sub(last.Delivered)
	if confirm < 0 {
		confirm = 0
	}
	return time.Duration(float64(service)*frac) + confirm
}

// Throughput is the goodput over the transmission phase, bytes/second.
func (m Metrics) Throughput() float64 {
	tt := m.TransmissionTime().Seconds()
	if tt <= 0 {
		return 0
	}
	return float64(m.TotalBytes) / tt
}

// SenderOptions tunes a Sender.
type SenderOptions struct {
	// PartAckTimeout bounds the wait for each application-level part ack.
	// Default 45 minutes: longer than the pipe's worst-case retransmission
	// cycle, so pipe-level recovery gets its chance first.
	PartAckTimeout time.Duration
	// PetitionTimeout bounds the wait for the petition ack. Default 5
	// minutes (the petition itself is tiny; only wake lag delays it).
	PetitionTimeout time.Duration
	// Pipelined streams every part without waiting for its application-level
	// confirmation before sending the next; confirmations are collected
	// after the last part leaves. The default (false) is the paper's
	// stop-and-wait protocol — each part confirmed before the next is sent —
	// which every figure measures. Pipelined mode isolates the protocol cost
	// the paper never did.
	Pipelined bool
}

func (o SenderOptions) withDefaults() SenderOptions {
	if o.PartAckTimeout <= 0 {
		o.PartAckTimeout = 45 * time.Minute
	}
	if o.PetitionTimeout <= 0 {
		o.PetitionTimeout = 5 * time.Minute
	}
	return o
}

// Sender transmits files to receivers over a pipe mux.
type Sender struct {
	host   transport.Host
	mux    *pipe.Mux
	opts   SenderOptions
	nextID atomic.Uint64
}

// NewSender returns a sender using the mux for outbound transfers.
func NewSender(host transport.Host, mux *pipe.Mux, opts SenderOptions) *Sender {
	return &Sender{host: host, mux: mux, opts: opts.withDefaults()}
}

// Send transmits f to the remote transfer service in `parts` parts,
// following the paper's protocol: petition, wait for the accept, then one
// part at a time, each confirmed before the next is sent. It returns full
// timing metrics; on error the metrics record everything up to the failure
// with Failed set.
func (s *Sender) Send(remote transport.Addr, f File, parts int) (Metrics, error) {
	m := Metrics{
		TransferID:  s.nextID.Add(1),
		Peer:        remote.Node(),
		FileName:    f.Name,
		TotalBytes:  f.Size,
		Granularity: parts,
		Attempts:    1,
	}
	split, err := Split(f, parts)
	if err != nil {
		m.Failed = true
		return m, err
	}
	conn, err := s.mux.Dial(remote)
	if err != nil {
		m.Failed = true
		return m, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	defer conn.Close()

	// Petition.
	m.PetitionSent = s.host.Now()
	pet := petition{
		TransferID: m.TransferID,
		FileName:   f.Name,
		Checksum:   f.Checksum(),
		TotalSize:  f.Size,
		Parts:      len(split),
		Sender:     s.host.Name(),
		SentAt:     m.PetitionSent,
	}
	if err := conn.Send(pet.encode()); err != nil {
		m.Failed = true
		return m, fmt.Errorf("%w: petition: %v", ErrFailed, err)
	}
	ackMsg, err := conn.RecvTimeout(s.opts.PetitionTimeout)
	if err != nil {
		m.Failed = true
		return m, fmt.Errorf("%w: waiting petition ack: %v", ErrFailed, err)
	}
	kind, d, err := decodeKind(ackMsg.Payload)
	if err != nil || kind != msgPetitionAck {
		m.Failed = true
		return m, fmt.Errorf("%w: unexpected reply %d to petition", ErrFailed, kind)
	}
	ack, err := decodePetitionAck(d)
	if err != nil {
		m.Failed = true
		return m, fmt.Errorf("%w: petition ack: %v", ErrFailed, err)
	}
	m.PetitionAcked = s.host.Now()
	m.PetitionReceived = ack.ReceivedAt
	if !ack.Accept {
		m.Failed = true
		return m, fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}

	if s.opts.Pipelined {
		return s.sendPipelined(conn, m, split)
	}

	// Parts, stop-and-wait at the application level.
	for _, p := range split {
		pt := PartTiming{Index: p.Index, Size: p.Size, Started: s.host.Now()}
		hdr := partHeader{
			TransferID: m.TransferID,
			Index:      p.Index,
			Offset:     p.Offset,
			Size:       p.Size,
			Data:       p.Data,
		}
		if err := conn.SendSized(hdr.encode(), p.Size); err != nil {
			m.Failed = true
			m.Parts = append(m.Parts, pt)
			return m, fmt.Errorf("%w: part %d: %v", ErrFailed, p.Index, err)
		}
		reply, err := conn.RecvTimeout(s.opts.PartAckTimeout)
		if err != nil {
			m.Failed = true
			m.Parts = append(m.Parts, pt)
			return m, fmt.Errorf("%w: waiting ack for part %d: %v", ErrFailed, p.Index, err)
		}
		kind, d, err := decodeKind(reply.Payload)
		if err != nil || kind != msgPartAck {
			m.Failed = true
			m.Parts = append(m.Parts, pt)
			return m, fmt.Errorf("%w: unexpected reply %d to part %d", ErrFailed, kind, p.Index)
		}
		pa, err := decodePartAck(d)
		if err != nil {
			m.Failed = true
			m.Parts = append(m.Parts, pt)
			return m, fmt.Errorf("%w: part ack: %v", ErrFailed, err)
		}
		if !pa.OK {
			m.Failed = true
			m.Parts = append(m.Parts, pt)
			return m, fmt.Errorf("%w: receiver rejected part %d: %s", ErrFailed, p.Index, pa.Reason)
		}
		pt.Delivered = pa.DeliveredAt
		pt.Confirmed = s.host.Now()
		m.Parts = append(m.Parts, pt)
	}
	m.Done = s.host.Now()
	return m, nil
}

// SendPieces transmits the pieces of f named by indices — positions in the
// canonical pieces-way split — to the remote transfer service. Pieces are
// always pipelined: a dissemination round batches every piece one holder
// owes one downloader into a single conn, and the per-piece stop-and-wait
// round-trip is exactly the protocol cost a swarm does not pay. Metrics
// slots follow the order of indices; each PartTiming keeps the piece's
// original index. TotalBytes counts only the selected pieces.
func (s *Sender) SendPieces(remote transport.Addr, f File, pieces int, indices []int) (Metrics, error) {
	m := Metrics{
		TransferID:  s.nextID.Add(1),
		Peer:        remote.Node(),
		FileName:    f.Name,
		Granularity: len(indices),
		Attempts:    1,
	}
	split, err := Split(f, pieces)
	if err != nil {
		m.Failed = true
		return m, err
	}
	selected := make([]Part, 0, len(indices))
	seen := make(map[int]bool, len(indices))
	for _, idx := range indices {
		if idx < 0 || idx >= len(split) || seen[idx] {
			m.Failed = true
			return m, fmt.Errorf("transfer: piece index %d invalid for %d-piece split of %q", idx, len(split), f.Name)
		}
		seen[idx] = true
		selected = append(selected, split[idx])
		m.TotalBytes += split[idx].Size
	}
	if len(selected) == 0 {
		m.Failed = true
		return m, fmt.Errorf("transfer: no pieces selected for %q", f.Name)
	}
	conn, err := s.mux.Dial(remote)
	if err != nil {
		m.Failed = true
		return m, fmt.Errorf("%w: %v", ErrFailed, err)
	}
	defer conn.Close()

	m.PetitionSent = s.host.Now()
	pet := piecePetition{
		TransferID: m.TransferID,
		FileName:   f.Name,
		Checksum:   f.Checksum(),
		TotalSize:  f.Size,
		Pieces:     len(split),
		Indices:    indices,
		Sender:     s.host.Name(),
		SentAt:     m.PetitionSent,
	}
	if err := conn.Send(pet.encode()); err != nil {
		m.Failed = true
		return m, fmt.Errorf("%w: piece petition: %v", ErrFailed, err)
	}
	ackMsg, err := conn.RecvTimeout(s.opts.PetitionTimeout)
	if err != nil {
		m.Failed = true
		return m, fmt.Errorf("%w: waiting piece petition ack: %v", ErrFailed, err)
	}
	kind, d, err := decodeKind(ackMsg.Payload)
	if err != nil || kind != msgPetitionAck {
		m.Failed = true
		return m, fmt.Errorf("%w: unexpected reply %d to piece petition", ErrFailed, kind)
	}
	ack, err := decodePetitionAck(d)
	if err != nil {
		m.Failed = true
		return m, fmt.Errorf("%w: piece petition ack: %v", ErrFailed, err)
	}
	m.PetitionAcked = s.host.Now()
	m.PetitionReceived = ack.ReceivedAt
	if !ack.Accept {
		m.Failed = true
		return m, fmt.Errorf("%w: %s", ErrRejected, ack.Reason)
	}

	// Pipelined part streams, confirmations collected as they land. Acks
	// carry original piece indices; map them back to metric slots.
	slotOf := make(map[int]int, len(selected))
	for slot, p := range selected {
		slotOf[p.Index] = slot
	}
	m.Parts = make([]PartTiming, len(selected))
	sendErrs := s.host.NewQueue()
	for slot, p := range selected {
		slot, p := slot, p
		s.host.Go(func() {
			m.Parts[slot] = PartTiming{Index: p.Index, Size: p.Size, Started: s.host.Now()}
			hdr := partHeader{
				TransferID: m.TransferID,
				Index:      p.Index,
				Offset:     p.Offset,
				Size:       p.Size,
				Data:       p.Data,
			}
			if err := conn.SendSized(hdr.encode(), p.Size); err != nil {
				sendErrs.Push(fmt.Errorf("%w: piece %d: %v", ErrFailed, p.Index, err))
			}
		})
	}
	fail := func(err error) (Metrics, error) {
		m.Failed = true
		if sendErrs.Len() > 0 {
			if v, perr := sendErrs.Pop(); perr == nil {
				return m, v.(error)
			}
		}
		return m, err
	}
	for confirmed := 0; confirmed < len(selected); confirmed++ {
		reply, err := conn.RecvTimeout(s.opts.PartAckTimeout)
		if err != nil {
			return fail(fmt.Errorf("%w: waiting piece acks (%d/%d): %v", ErrFailed, confirmed, len(selected), err))
		}
		kind, d, err := decodeKind(reply.Payload)
		if err != nil || kind != msgPartAck {
			return fail(fmt.Errorf("%w: unexpected reply %d while awaiting piece acks", ErrFailed, kind))
		}
		pa, err := decodePartAck(d)
		if err != nil {
			return fail(fmt.Errorf("%w: piece ack: %v", ErrFailed, err))
		}
		slot, known := slotOf[pa.Index]
		if !pa.OK || !known {
			return fail(fmt.Errorf("%w: receiver rejected piece %d: %s", ErrFailed, pa.Index, pa.Reason))
		}
		m.Parts[slot].Delivered = pa.DeliveredAt
		m.Parts[slot].Confirmed = s.host.Now()
	}
	m.Done = s.host.Now()
	return m, nil
}

// sendPipelined streams the parts through concurrent sender processes (the
// pipe's Send blocks until the peer's pipe-level acknowledgment, so filling
// its window takes concurrency), while the calling process collects the
// application-level confirmations as they come back, in whatever order the
// parts landed. The receiver still acknowledges each part as it arrives —
// the same receive loop serves both modes; only the sender stops paying a
// confirmation round-trip per part.
func (s *Sender) sendPipelined(conn *pipe.Conn, m Metrics, split []Part) (Metrics, error) {
	m.Parts = make([]PartTiming, len(split))
	sendErrs := s.host.NewQueue()
	for _, p := range split {
		p := p
		s.host.Go(func() {
			m.Parts[p.Index] = PartTiming{Index: p.Index, Size: p.Size, Started: s.host.Now()}
			hdr := partHeader{
				TransferID: m.TransferID,
				Index:      p.Index,
				Offset:     p.Offset,
				Size:       p.Size,
				Data:       p.Data,
			}
			if err := conn.SendSized(hdr.encode(), p.Size); err != nil {
				sendErrs.Push(fmt.Errorf("%w: part %d: %v", ErrFailed, p.Index, err))
			}
		})
	}
	fail := func(err error) (Metrics, error) {
		m.Failed = true
		// A send failure is the likelier root cause than the ack silence
		// that follows it; surface it when one has been reported.
		if sendErrs.Len() > 0 {
			if v, perr := sendErrs.Pop(); perr == nil {
				return m, v.(error)
			}
		}
		return m, err
	}
	for confirmed := 0; confirmed < len(split); confirmed++ {
		reply, err := conn.RecvTimeout(s.opts.PartAckTimeout)
		if err != nil {
			return fail(fmt.Errorf("%w: waiting part acks (%d/%d): %v", ErrFailed, confirmed, len(split), err))
		}
		kind, d, err := decodeKind(reply.Payload)
		if err != nil || kind != msgPartAck {
			return fail(fmt.Errorf("%w: unexpected reply %d while awaiting part acks", ErrFailed, kind))
		}
		pa, err := decodePartAck(d)
		if err != nil {
			return fail(fmt.Errorf("%w: part ack: %v", ErrFailed, err))
		}
		if !pa.OK || pa.Index < 0 || pa.Index >= len(split) {
			return fail(fmt.Errorf("%w: receiver rejected part %d: %s", ErrFailed, pa.Index, pa.Reason))
		}
		m.Parts[pa.Index].Delivered = pa.DeliveredAt
		m.Parts[pa.Index].Confirmed = s.host.Now()
	}
	m.Done = s.host.Now()
	return m, nil
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
	// Accept decides whether to accept a petition; nil accepts everything.
	Accept func(fileName string, totalSize, parts int, from string) (bool, string)
	// OnFile is invoked after each completed transfer.
	OnFile func(Received)
	// PartTimeout bounds the wait for each part. Default 60 minutes.
	PartTimeout time.Duration
}

func (o ReceiverOptions) withDefaults() ReceiverOptions {
	if o.PartTimeout <= 0 {
		o.PartTimeout = 60 * time.Minute
	}
	return o
}

// Receiver serves inbound transfers on a pipe mux. Start launches its accept
// loop; each transfer runs in its own process.
type Receiver struct {
	host transport.Host
	mux  *pipe.Mux
	opts ReceiverOptions
}

// NewReceiver returns a receiver; call Start to begin serving.
func NewReceiver(host transport.Host, mux *pipe.Mux, opts ReceiverOptions) *Receiver {
	return &Receiver{host: host, mux: mux, opts: opts.withDefaults()}
}

// Start launches the accept loop as a host process.
func (r *Receiver) Start() {
	r.host.Go(func() {
		for {
			conn, err := r.mux.Accept()
			if err != nil {
				return
			}
			r.host.Go(func() { r.handle(conn) })
		}
	})
}

// handle serves one transfer conn.
func (r *Receiver) handle(conn *pipe.Conn) {
	defer conn.Close()
	first, err := conn.RecvTimeout(r.opts.PartTimeout)
	if err != nil {
		return
	}
	kind, d, err := decodeKind(first.Payload)
	if err != nil {
		return
	}
	if kind == msgPiecePetition {
		pp, err := decodePiecePetition(d)
		if err != nil {
			return
		}
		r.handlePieces(conn, pp)
		return
	}
	if kind != msgPetition {
		return
	}
	pet, err := decodePetition(d)
	if err != nil {
		return
	}
	receivedAt := r.host.Now()

	// Parts sizes the reassembly buffers below and comes straight off the
	// wire: refuse a count no sender of ours produces before allocating.
	accept, reason := true, ""
	if pet.Parts < 0 || pet.Parts > maxParts {
		accept, reason = false, fmt.Sprintf("part count %d outside [0, %d]", pet.Parts, maxParts)
	} else if r.opts.Accept != nil {
		accept, reason = r.opts.Accept(pet.FileName, pet.TotalSize, pet.Parts, pet.Sender)
	}
	ack := petitionAck{
		TransferID: pet.TransferID,
		Accept:     accept,
		Reason:     reason,
		ReceivedAt: receivedAt,
	}
	if err := conn.Send(ack.encode()); err != nil || !accept {
		return
	}

	// The per-part wait must outlive the sender's worst-case retry cycle:
	// a lost copy of a large part costs the sender its serialization time
	// plus a conservative retransmission timeout, several times over.
	// Giving up earlier leaves the sender talking to a dead conn (and the
	// transfer failing long after it could have recovered).
	partSize := pet.TotalSize
	if pet.Parts > 0 {
		partSize = pet.TotalSize / pet.Parts
	}
	perPart := r.opts.PartTimeout +
		time.Duration(10*float64(partSize)/assumedFloorRate*float64(time.Second))

	// Parts are accepted in any index order: a stop-and-wait sender delivers
	// them strictly in order, a pipelined sender's concurrent part streams
	// may land interleaved. Each valid part is acknowledged as it arrives;
	// an index outside the petition (or a repeat) rejects the transfer.
	start := r.host.Now()
	parts := make([]Part, pet.Parts)
	got := make([]bool, pet.Parts)
	for i := 0; i < pet.Parts; i++ {
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
		ok, why := ph.Index >= 0 && ph.Index < pet.Parts && !got[ph.Index], ""
		if !ok {
			why = fmt.Sprintf("unexpected part %d of %d", ph.Index, pet.Parts)
		}
		pa := partAck{
			TransferID:  pet.TransferID,
			Index:       ph.Index,
			OK:          ok,
			Reason:      why,
			DeliveredAt: delivered,
			Ready:       i+1 < pet.Parts,
		}
		if err := conn.Send(pa.encode()); err != nil {
			return
		}
		if !ok {
			return
		}
		parts[ph.Index] = Part{Index: ph.Index, Offset: ph.Offset, Size: ph.Size, Data: ph.Data}
		got[ph.Index] = true
	}

	f, err := Join(pet.FileName, pet.TotalSize, parts)
	verified := err == nil
	if verified && f.Data != nil {
		verified = f.Checksum() == pet.Checksum
	}
	if r.opts.OnFile != nil {
		r.opts.OnFile(Received{
			TransferID: pet.TransferID,
			Sender:     pet.Sender,
			File:       f,
			Elapsed:    r.host.Now().Sub(start),
			Verified:   verified,
		})
	}
}

// handlePieces serves one piece-indexed transmission: a piecePetition
// followed by the named pieces in any order, each acknowledged exactly like
// a whole-file part. The pieces are partial coverage by construction, so
// there is no Join and no OnFile callback — the dissemination engine owns
// the piece inventory on the driver side, and the receiver only has to
// pace, validate, and confirm.
func (r *Receiver) handlePieces(conn *pipe.Conn, pet piecePetition) {
	receivedAt := r.host.Now()
	accept, reason := true, ""
	if r.opts.Accept != nil {
		accept, reason = r.opts.Accept(pet.FileName, pet.TotalSize, pet.Pieces, pet.Sender)
	}
	ack := petitionAck{
		TransferID: pet.TransferID,
		Accept:     accept,
		Reason:     reason,
		ReceivedAt: receivedAt,
	}
	if err := conn.Send(ack.encode()); err != nil || !accept {
		return
	}

	// Expected set doubles as the dedup filter: a repeat piece rejects.
	expected := make(map[int]bool, len(pet.Indices))
	for _, i := range pet.Indices {
		expected[i] = true
	}
	partSize := pet.TotalSize
	if pet.Pieces > 0 {
		partSize = pet.TotalSize / pet.Pieces
	}
	perPart := r.opts.PartTimeout +
		time.Duration(10*float64(partSize)/assumedFloorRate*float64(time.Second))
	for i := 0; i < len(pet.Indices); i++ {
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
		ok, why := expected[ph.Index], ""
		if !ok {
			why = fmt.Sprintf("unexpected piece %d", ph.Index)
		}
		pa := partAck{
			TransferID:  pet.TransferID,
			Index:       ph.Index,
			OK:          ok,
			Reason:      why,
			DeliveredAt: delivered,
			Ready:       i+1 < len(pet.Indices),
		}
		if err := conn.Send(pa.encode()); err != nil {
			return
		}
		if !ok {
			return
		}
		delete(expected, ph.Index)
	}
}
