package transfer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
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

// maxStretch caps how far an announced part size stretches the per-part
// wait: a century, which no part smaller than 31 TB reaches and which keeps
// the deadline's instant inside a time.Duration.
const maxStretch = 100 * 365 * 24 * time.Hour

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
	host transport.Host
	mux  *pipe.Mux
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
	split, err := f.Parts(parts)
	if err != nil {
		return err
	}
	return s.transmit(remote, m, f, split, nil)
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
	split, err := selectPieces(f, pieces, indices, m)
	if err != nil {
		return err
	}
	return s.transmit(remote, m, f, split, indices)
}

// selectPieces checks indices against f's split for pieces, returning its
// part count, and adds each named part's size to m.TotalBytes. Only a
// refusal allocates: a repeat is found by scanning the indices before it.
func selectPieces(f File, pieces int, indices []int, m *Metrics) (int, error) {
	split, err := f.Parts(pieces)
	if err != nil {
		return 0, err
	}
	for n, idx := range indices {
		if idx < 0 || idx >= split || slices.Contains(indices[:n], idx) {
			return 0, fmt.Errorf("transfer: piece index %d invalid for %d-piece split of %q", idx, split, f.Name)
		}
		m.TotalBytes += f.Part(split, idx).Size
	}
	if len(indices) == 0 {
		return 0, fmt.Errorf("transfer: no pieces selected for %q", f.Name)
	}
	return split, nil
}

// start resets m to a new transmission's record, failed until transmit
// completes it.
func (s *Sender) start(m *Metrics, remote transport.Addr, fileName string, granularity int) {
	*m = Metrics{
		Peer:        remote.Node(),
		FileName:    fileName,
		Granularity: granularity,
		Failed:      true,
		Attempts:    1,
	}
}

// transmit is the one path every transmission takes: a fresh conn, the
// handshake, then the parts of f's split into split parts — all of them, or
// those indices names, in that order — through the part stream. The call
// decides the mode: the whole file (indices nil, Send) goes stop-and-wait,
// a selection (SendPieces) streams.
func (s *Sender) transmit(remote transport.Addr, m *Metrics, f File, split int, indices []int) error {
	conn, err := s.mux.Dial(remote)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrFailed, err)
	}
	defer conn.Close()
	m.PetitionSent = s.host.Now()
	pet := petition{
		FileName:  f.Name,
		Checksum:  f.Checksum(),
		TotalSize: f.Size,
		Parts:     split,
		Indices:   indices,
		Sender:    s.host.Name(),
	}
	if err = s.handshake(conn, m, &pet); err == nil {
		m.Parts, err = s.stream(conn, f, split, indices)
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
	if err := conn.Send(wire.Frame(msgPetition, pet.encodeTo)); err != nil {
		return fmt.Errorf("%w: petition: %w", ErrFailed, err)
	}
	ackMsg, err := recvWithin(conn, petitionTimeout)
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
// failed. Streamed, each part gets a sending process, spawned from one func
// that takes the next part in list order, while the calling process
// collects the confirmations in whatever order the parts land. The receiver
// cannot tell the two apart: it confirms each part as it arrives either way.
func (s *Sender) stream(conn pipe.Conn, f File, split int, indices []int) ([]PartTiming, error) {
	if indices == nil {
		timings := make([]PartTiming, split)
		for n := range timings {
			if err := s.sendPart(conn, f.Part(split, n), &timings[n]); err != nil {
				return timings[:n+1], partFailed(n, err)
			}
			if err := s.awaitAck(conn, timings[n:n+1]); err != nil {
				return timings[:n+1], err
			}
		}
		return timings, nil
	}
	timings := make([]PartTiming, len(indices))
	var first struct { // the next part to send; the first send to fail, wrapped only if surfaced
		sync.Mutex
		next, index int
		err         error
	}
	send := func() {
		first.Lock()
		n := first.next
		first.next++
		first.Unlock()
		err := s.sendPart(conn, f.Part(split, indices[n]), &timings[n])
		first.Lock()
		if first.err == nil && err != nil {
			first.index, first.err = indices[n], err
		}
		first.Unlock()
	}
	for range indices {
		s.host.Go(send)
	}
	for range indices {
		if err := s.awaitAck(conn, timings); err != nil {
			// A send failure is the likelier root cause than the ack silence
			// that follows it; surface it when one has been reported, unless
			// the silence outlasted the deadline, which failed the sends.
			first.Lock()
			defer first.Unlock()
			if first.err != nil && !errors.Is(err, pipe.ErrTimeout) {
				return timings, partFailed(first.index, first.err)
			}
			return timings, err
		}
	}
	return timings, nil
}

// sendPart puts one part on the wire, stamping when it started. A failure
// comes back raw: most streamed ones follow the transfer's confirmation, as
// the returning caller closes the conn under them, and go unread.
func (s *Sender) sendPart(conn pipe.Conn, p Part, pt *PartTiming) error {
	*pt = PartTiming{Index: p.Index, Size: p.Size, Started: s.host.Now()}
	return conn.SendSized(wire.Frame(msgPart, p.encodeTo), p.Size)
}

// partFailed is how the failed send of part index surfaces.
func partFailed(index int, err error) error {
	return fmt.Errorf("%w: part %d: %v", ErrFailed, index, err)
}

// awaitAck waits for the next part confirmation and stamps the part it
// confirms. One rule holds whatever the pacing: an ack confirms a part of
// window that was sent and is not yet confirmed, so each part is confirmed
// once. Stop-and-wait passes the one part in flight. A failure names the
// first part of window still unconfirmed.
func (s *Sender) awaitAck(conn pipe.Conn, window []PartTiming) error {
	first := slices.IndexFunc(window, func(pt PartTiming) bool { return pt.Confirmed.IsZero() })
	reply, err := recvWithin(conn, partAckTimeout)
	if err != nil {
		return fmt.Errorf("%w: waiting ack for part %d: %w", ErrFailed, window[first].Index, err)
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

// recvWithin is a Recv under the conn's deadline, armed for d: once it fires
// the conn is down and the Recv returns pipe.ErrTimeout. The deadline is
// armed after the Send it follows, which is never bounded.
func recvWithin(conn pipe.Conn, d time.Duration) (pipe.Message, error) {
	conn.CloseAfter(d)
	defer conn.CloseAfter(-1)
	return conn.Recv()
}

// Received describes a completed inbound transfer handed to the receiver's
// callback.
type Received struct {
	Sender   string
	File     File
	Verified bool // checksum matched (real files) or structure valid
}

// Receiver returns the serve func (pipe.Options.Serve) of a mux that
// receives transfers: each accepted conn is an inbound transfer, a state
// machine on the conn's served inbox, which waits up to partTimeout for its
// petition. onFile, if not nil, is invoked after each completed whole-file
// transfer.
func Receiver(host transport.Host, onFile func(Received)) func(pipe.Conn) pipe.Handler {
	return func(conn pipe.Conn) pipe.Handler {
		conn.CloseAfter(partTimeout)
		return &inbound{host: host, onFile: onFile}
	}
}

// inbound is one transfer conn, whichever petition opens it: admit, answer,
// then receive, validate and confirm each announced part. A whole file is
// reassembled and handed to onFile; pieces are partial coverage by
// construction, so there is no Join and no callback — the dissemination
// engine owns the piece inventory on the driver side, and the receiver only
// has to pace, validate and confirm.
//
// It runs the sequential program "receive, answer, wait for the answer's
// ack" as a state machine that holds no process: each answer is Posted, and
// the conn hands the next message only once the answer was acknowledged, so
// stamps and frames fall where that program puts them. The wait for the
// next frame is the conn's deadline, armed for the petition at accept and
// for each part as the previous answer completes; its firing, the peer's
// FIN, a broken answer or a bad frame ends the transfer with Close.
type inbound struct {
	host   transport.Host
	onFile func(Received)
	in     petition
	// A bit per slot, set as its part lands (nil until admission): a whole
	// file's slot is the part's index, a list's its place in listed, sorted.
	// room and word hold the list, listed and a word of bits while they fit.
	landed    []uint64
	listed    []int
	room      [4]int
	word      [1]uint64
	parts     []Part
	whole     bool
	accepting bool // the outstanding answer lets the transfer go on
	expected  int  // parts announced
	received  int  // parts answered
	perPart   time.Duration
}

func (t *inbound) Handle(conn pipe.Conn, ev pipe.Event) {
	goOn := false
	switch {
	case ev.Posted:
		goOn = ev.Err == nil && t.accepting && t.answered(conn)
	case ev.Err != nil:
	case t.landed == nil:
		conn.CloseAfter(-1) // the wait is over
		goOn = t.petition(conn, ev.Msg)
	default:
		conn.CloseAfter(-1)
		goOn = t.part(conn, ev.Msg)
	}
	if !goOn {
		conn.Close()
	}
}

// petition admits the transfer and answers it.
func (t *inbound) petition(conn pipe.Conn, first pipe.Message) bool {
	in, err := decodePetition(first.Payload, t.room[:])
	if err != nil {
		return false
	}
	t.in = in
	receivedAt := t.host.Now()

	// The receiver keeps what arrived, never what was only promised: a
	// piece list, which the petition's own bytes carry, and a bit per slot
	// a part landed in. A whole file announces [0, Parts), a count straight
	// off the wire, so it sizes nothing past MaxPieces. A count no sender of
	// ours produces is refused, and so is a piece list naming a position
	// outside the split or twice: in list order, a repeat finds its first
	// sorted slot's bit set.
	t.whole, t.expected, t.landed = in.Indices == nil, len(in.Indices), t.word[:0]
	if t.whole {
		t.expected = in.Parts
	}
	accept, reason := true, ""
	if in.Parts < 0 || in.Parts > maxParts {
		accept, reason = false, fmt.Sprintf("part count %d outside [0, %d]", in.Parts, maxParts)
	}
	t.listed = append(in.Indices[len(in.Indices):], in.Indices...)
	slices.Sort(t.listed)
	for n := 0; accept && n < len(in.Indices); n++ {
		i := in.Indices[n]
		if k, _ := slices.BinarySearch(t.listed, i); i < 0 || i >= in.Parts || !t.land(k) {
			accept, reason = false, fmt.Sprintf("piece list names part %d of %d twice or outside the split", i, in.Parts)
		}
	}
	clear(t.landed)
	if t.whole && accept {
		t.parts = make([]Part, 0, min(max(t.expected, 0), MaxPieces))
	}

	// The per-part wait must outlive the sender's worst-case retry cycle:
	// a lost copy of a large part costs the sender its serialization time
	// plus a conservative retransmission timeout, several times over.
	// Giving up earlier leaves the sender talking to a dead conn (and the
	// transfer failing long after it could have recovered). The announced
	// size is the sender's word, so the stretch is capped at maxStretch.
	partSize := in.TotalSize / max(in.Parts, 1)
	stretch := min(max(10*float64(partSize)/pipe.MinRate, 0), maxStretch.Seconds())
	t.perPart = partTimeout + time.Duration(stretch*float64(time.Second))

	t.accepting = accept
	ack := petitionAck{Accept: accept, Reason: reason, ReceivedAt: receivedAt}
	return conn.Post(wire.Frame(msgPetitionAck, ack.encodeTo)) == nil
}

// part validates and confirms one part. Parts are taken in any order (a
// streaming sender's may land interleaved), one per announced entry; one
// that was not announced or has already arrived rejects the transfer. A
// whole file's parts are kept as they land and sorted once for Join.
func (t *inbound) part(conn pipe.Conn, msg pipe.Message) bool {
	kind, d, err := wire.Tag(msg.Payload)
	if err != nil || kind != msgPart {
		return false
	}
	ph, err := decodePart(d)
	if err != nil {
		return false
	}
	k, named := ph.Index, ph.Index >= 0 && ph.Index < t.in.Parts
	if !t.whole {
		k, named = slices.BinarySearch(t.listed, ph.Index)
	}
	pa := partAck{Index: ph.Index, OK: named && t.land(k), DeliveredAt: t.host.Now()}
	if !pa.OK {
		pa.Reason = fmt.Sprintf("unexpected part %d of %d", ph.Index, t.expected)
	}
	t.accepting, t.received = pa.OK, t.received+1
	if pa.OK && t.whole {
		t.parts = append(t.parts, ph)
	}
	return conn.Post(wire.Frame(msgPartAck, pa.encodeTo)) == nil
}

// land sets slot k's bit, growing the set to hold it, and reports whether
// the bit was clear.
func (t *inbound) land(k int) bool {
	for k>>6 >= len(t.landed) {
		t.landed = append(t.landed, 0)
	}
	was := t.landed[k>>6]
	t.landed[k>>6] |= 1 << (k & 63)
	return t.landed[k>>6] != was
}

// answered follows an accepting answer's ack: the transfer waits for its
// next part, or, with every announced part confirmed, is done.
func (t *inbound) answered(conn pipe.Conn) bool {
	if t.received < t.expected {
		conn.CloseAfter(t.perPart)
		return true
	}
	if !t.whole {
		return false
	}
	slices.SortFunc(t.parts, func(a, b Part) int { return cmp.Compare(a.Index, b.Index) })
	f, err := Join(t.in.FileName, t.in.TotalSize, t.parts)
	if t.onFile != nil {
		t.onFile(Received{
			Sender:   t.in.Sender,
			File:     f,
			Verified: err == nil && (f.Data == nil || f.Checksum() == t.in.Checksum),
		})
	}
	return false
}
