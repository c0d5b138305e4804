// Package overlay implements the JXTA-Overlay platform from the paper's §3:
// Brokers act as governors of the P2P network (registration directory,
// statistics aggregation, peer-selection service), Clients are edge peers
// (our SimpleClient — no GUI), and the Primitives — peer discovery, peer
// selection, resource allocation, file sharing and transmission, instant
// communication, task management, resource statistics — are the methods the
// two expose.
package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/task"
	"peerlab/internal/transfer"
	"peerlab/internal/wire"
)

// Service names bound per node.
const (
	ServiceBroker   = "broker"
	ServiceClient   = "client"
	ServiceTransfer = "xfer"
)

// Message type tags.
const (
	mtRegister       byte = 1
	mtRegisterAck    byte = 2
	mtStatsReport    byte = 3
	mtAck            byte = 4
	mtDiscover       byte = 5
	mtDiscoverResult byte = 6
	mtSelect         byte = 7
	mtSelectResult   byte = 8
	mtReportTransfer byte = 9
	mtReportTask     byte = 10
	mtReportMessage  byte = 11
	mtTaskSubmit     byte = 12
	mtTaskDecision   byte = 13
	mtTaskDone       byte = 14
	mtInstant        byte = 15
	mtInstantAck     byte = 16
	mtPieceReport    byte = 17
)

// register announces a client to its broker: its advertisement and its
// current load report in one exchange, acknowledged by a registerAck. The
// broker applies publish-then-report, so a registered peer is rankable
// without a follow-up statsReport.
type register struct {
	Adv   jxta.Advertisement
	Stats statsReport
}

func (m register) encodeTo(e *wire.Encoder) {
	m.Adv.Encode(e)
	m.Stats.encodeTo(e)
}

// registerAck confirms registration, or refuses it.
type registerAck struct {
	OK bool
}

func (m registerAck) encodeTo(e *wire.Encoder) {
	e.Bool(m.OK)
}

// statsReport carries a client's self-reported load.
type statsReport struct {
	Peer      string
	InboxLen  int
	OutboxLen int
	QueueLen  int
	ReadyIn   time.Duration
	CPUScore  float64
}

// encodeTo appends the report's fields, untagged: the body of a statsReport
// frame and the tail of a register frame.
func (m statsReport) encodeTo(e *wire.Encoder) {
	e.String(m.Peer)
	e.Int(m.InboxLen)
	e.Int(m.OutboxLen)
	e.Int(m.QueueLen)
	e.Duration(m.ReadyIn)
	e.Float64(m.CPUScore)
}

// encodeDiscoverResult appends the discover reply carrying advs, in order.
func encodeDiscoverResult(e *wire.Encoder, advs []jxta.Advertisement) {
	e.Byte(mtDiscoverResult)
	e.Uint64(uint64(len(advs)))
	for i := range advs {
		advs[i].Encode(e)
	}
}

// selectReq asks the broker's selection service to rank peers.
type selectReq struct {
	Model      string
	Kind       byte // core.RequestKind
	SizeBytes  int
	WorkUnits  float64
	MaxResults int
	// Preferred carries the user's ranking for the user-preference model.
	Preferred []string
	// Exclude removes peers from candidacy (e.g. the requester itself).
	Exclude []string
}

func (m selectReq) encodeTo(e *wire.Encoder) {
	e.String(m.Model)
	e.Byte(m.Kind)
	e.Int(m.SizeBytes)
	e.Float64(m.WorkUnits)
	e.Int(m.MaxResults)
	e.StringSlice(m.Preferred)
	e.StringSlice(m.Exclude)
}

// selectResult returns ranked peer names; a peer's transfer address is a
// function of its name (transport.MakeAddr), so none travels.
type selectResult struct {
	Peers []string
	Err   string
}

func (m selectResult) encodeTo(e *wire.Encoder) {
	e.StringSlice(m.Peers)
	e.String(m.Err)
}

// reportTransferFrame encodes a sender's observations of transfer m to
// peer, which ended with sendErr: a refusal is a failure, any other error a
// cancellation. The originating peer is the reporting conn's remote address
// (no field on the wire), so a multi-source workload's flows attribute to
// their true source instead of all appearing to come from the control node.
func reportTransferFrame(peer string, m *transfer.Metrics, sendErr error) []byte {
	return wire.Frame(mtReportTransfer, func(e *wire.Encoder) {
		e.String(peer)
		e.Bool(sendErr == nil)
		e.Bool(sendErr != nil && !errors.Is(sendErr, transfer.ErrRejected))
		e.Int(m.TotalBytes)
		e.Duration(m.TransmissionTime())
		e.Duration(m.PetitionDelay())
	})
}

// pieceReport is a piece report as the broker stores it: the reporter's
// name and its pieces and unchoked attribute values, the held indices and
// the unchoked hostnames comma-joined, as substrings of one string.
type pieceReport struct {
	Peer             string
	Pieces, Unchoked string
}

// pieceReportFrame encodes a piece report from its reporter, held indices
// and unchoked hostnames.
func pieceReportFrame(peer string, have []int, unchoked []string) []byte {
	return wire.Frame(mtPieceReport, func(e *wire.Encoder) {
		e.String(peer)
		e.Int(len(have))
		for _, p := range have {
			e.Int(p)
		}
		e.StringSlice(unchoked)
	})
}

// reportTaskFrame encodes a submitter's observations of a task offer to peer.
func reportTaskFrame(peer string, accepted, ok bool, spu float64) []byte {
	return wire.Frame(mtReportTask, func(e *wire.Encoder) {
		e.String(peer)
		e.Bool(accepted)
		e.Bool(ok)
		e.Float64(spu)
	})
}

// reportMessageFrame encodes the outcome of an instant message to peer.
func reportMessageFrame(peer string, ok bool) []byte {
	return wire.Frame(mtReportMessage, func(e *wire.Encoder) {
		e.String(peer)
		e.Bool(ok)
	})
}

// taskSubmit offers a task to a peer's executor.
type taskSubmit struct {
	Task task.Task
}

func (m taskSubmit) encodeTo(e *wire.Encoder) {
	e.Uint64(m.Task.ID)
	e.String(m.Task.Name)
	e.Float64(m.Task.WorkUnits)
	e.Int(m.Task.InputSize)
}

// taskDecision reports acceptance or rejection of a submitted task.
type taskDecision struct {
	Accepted bool
	Reason   string
}

func (m taskDecision) encodeTo(e *wire.Encoder) {
	e.Bool(m.Accepted)
	e.String(m.Reason)
}

// taskDone returns the execution result.
type taskDone struct {
	Result task.Result
}

func (m taskDone) encodeTo(e *wire.Encoder) {
	e.Uint64(m.Result.TaskID)
	e.Bool(m.Result.OK)
	e.String(m.Result.Detail)
	e.Duration(m.Result.Elapsed)
	e.String(m.Result.Peer)
}

// instant is a one-line instant message between peers.
type instant struct {
	From string
	Text string
}

func (m instant) encodeTo(e *wire.Encoder) {
	e.String(m.From)
	e.String(m.Text)
}

// The generic acknowledgment, the instant-message acknowledgment and the
// discover request, as the frames every sender shares: a sent buffer is
// read-only. A discover asks for the peer directory, the kind byte it
// carries.
var (
	ackFrame        = []byte{mtAck}
	instantAckFrame = []byte{mtInstantAck}
	discoverFrame   = []byte{mtDiscover, byte(jxta.AdvPeer)}
)

// --- decoding ---

// decodeRegister reads the advertisement as a one-entry directory: its
// strings share one copy of the frame.
func decodeRegister(d *wire.Decoder) (register, error) {
	dir, err := jxta.ScanAdvertisements(d, 1)
	if err != nil {
		return register{}, err
	}
	return register{Adv: dir.Decode()[0], Stats: decodeStatsFields(d)}, d.Finish()
}

func decodeRegisterAck(d *wire.Decoder) (registerAck, error) {
	return registerAck{OK: d.Bool()}, d.Finish()
}

func decodeStatsReport(d *wire.Decoder) (statsReport, error) {
	return decodeStatsFields(d), d.Finish()
}

// decodeStatsFields reads what statsReport.encodeTo wrote; the caller's
// Finish reports truncation.
func decodeStatsFields(d *wire.Decoder) statsReport {
	return statsReport{
		Peer:      d.StringField(),
		InboxLen:  d.Int(),
		OutboxLen: d.Int(),
		QueueLen:  d.Int(),
		ReadyIn:   d.Duration(),
		CPUScore:  d.Float64(),
	}
}

// scanDiscoverResult makes every check a discover reply has to pass and
// allocates nothing; the directory it returns decodes without further ones.
func scanDiscoverResult(d *wire.Decoder) (jxta.Directory, error) {
	dir, err := jxta.ScanAdvertisements(d, d.Uint64())
	if err == nil {
		err = d.Finish() // a count that failed to read scans as none and is reported here
	}
	return dir, err
}

func decodeSelectReq(d *wire.Decoder) (selectReq, error) {
	return selectReq{
		Model:      d.StringField(),
		Kind:       d.Byte(),
		SizeBytes:  d.Int(),
		WorkUnits:  d.Float64(),
		MaxResults: d.Int(),
		Preferred:  d.StringSlice(),
		Exclude:    d.StringSlice(),
	}, d.Finish()
}

func decodeSelectResult(d *wire.Decoder) (selectResult, error) {
	return selectResult{Peers: d.StringSlice(), Err: d.StringField()}, d.Finish()
}

// decodePieceReport joins the reporter's name and the report's fields into
// one string as it reads them, each field followed by a comma that the
// value's last one drops, in a stack buffer while they fit: an honest report
// allocates that one string, and its name and both attribute values are
// substrings of it. A negative index, one from transfer.MaxPieces or a name
// holding a comma is a malformed frame; an index count the frame cannot hold
// is refused before anything is read.
func decodePieceReport(d *wire.Decoder) (pieceReport, error) {
	values := append(make([]byte, 0, 512), d.BytesField()...)
	peer, n := len(values), d.Int()
	if n < 0 || n > d.Remaining() { // each piece index needs at least 1 byte
		return pieceReport{}, fmt.Errorf("%w: piece report of %d pieces in %d bytes", wire.ErrCorrupt, n, d.Remaining())
	}
	held := true
	for range n {
		p := d.Int()
		held = held && p >= 0 && p < transfer.MaxPieces
		values = append(strconv.AppendInt(values, int64(p), 10), ',')
	}
	pieces := len(values)
	for names := d.Uint64(); names > 0 && d.Err() == nil; names-- {
		name := d.BytesField()
		held = held && !bytes.Contains(name, []byte{','})
		values = append(append(values, name...), ',')
	}
	if err := d.Finish(); err != nil {
		return pieceReport{}, err
	}
	if !held {
		return pieceReport{}, fmt.Errorf("%w: piece report with an index or a name its attribute cannot hold", wire.ErrCorrupt)
	}
	joined := string(values)
	return pieceReport{Peer: joined[:peer], Pieces: joined[peer:max(pieces-1, peer)], Unchoked: joined[pieces:max(len(joined)-1, pieces)]}, nil
}

func decodeTaskSubmit(d *wire.Decoder) (taskSubmit, error) {
	return taskSubmit{Task: task.Task{
		ID:        d.Uint64(),
		Name:      d.StringField(),
		WorkUnits: d.Float64(),
		InputSize: d.Int(),
	}}, d.Finish()
}

func decodeTaskDecision(d *wire.Decoder) (taskDecision, error) {
	return taskDecision{Accepted: d.Bool(), Reason: d.StringField()}, d.Finish()
}

func decodeTaskDone(d *wire.Decoder) (taskDone, error) {
	m := taskDone{Result: task.Result{
		TaskID:  d.Uint64(),
		OK:      d.Bool(),
		Detail:  d.StringField(),
		Elapsed: d.Duration(),
		Peer:    d.StringField(),
	}}
	return m, d.Finish()
}

func decodeInstant(d *wire.Decoder) (instant, error) {
	return instant{From: d.StringField(), Text: d.StringField()}, d.Finish()
}
