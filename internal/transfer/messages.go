package transfer

import (
	"fmt"
	"time"

	"peerlab/internal/wire"
)

// Message types on a transfer conn.
const (
	msgPetition      byte = 1
	msgPetitionAck   byte = 2
	msgPart          byte = 3
	msgPartAck       byte = 4
	msgPiecePetition byte = 5
)

// petition announces an incoming transmission: the file, the part count of
// its canonical split and, when only some parts of that split follow, which.
// It travels as one of two frames. msgPetition, the whole file, has no
// index list — the paper's petition keeps its exact frame bytes, so the
// simulated timing (and with it every pre-dissemination golden) is
// untouched. msgPiecePetition lists Indices after Parts. The receiver
// answers either with the standard petitionAck and then standard partAcks.
type petition struct {
	TransferID uint64
	FileName   string
	Checksum   string
	TotalSize  int
	Parts      int
	// Indices names the parts this transmission carries, by position in the
	// split. nil means all of them, to be reassembled: the two frame kinds
	// differ in exactly this, so a decoded piece petition is never nil here.
	Indices []int
	Sender  string
	SentAt  time.Time
}

func (p *petition) encode() []byte {
	if p.Indices == nil {
		return wire.Frame(msgPetition, p.encodeTo)
	}
	return wire.Frame(msgPiecePetition, p.encodeTo)
}

func (p *petition) encodeTo(e *wire.Encoder) {
	e.Uint64(p.TransferID)
	e.String(p.FileName)
	e.String(p.Checksum)
	e.Int(p.TotalSize)
	e.Int(p.Parts)
	if p.Indices != nil {
		e.Int(len(p.Indices))
		for _, i := range p.Indices {
			e.Int(i)
		}
	}
	e.String(p.Sender)
	e.Time(p.SentAt)
}

// decodePetition decodes the frame that opens a transfer conn: either
// petition kind, and nothing else.
func decodePetition(payload []byte) (petition, error) {
	kind, d, err := wire.Tag(payload)
	if err != nil {
		return petition{}, err
	}
	if kind != msgPetition && kind != msgPiecePetition {
		return petition{}, fmt.Errorf("transfer: message %d where a petition was expected", kind)
	}
	p := petition{
		TransferID: d.Uint64(),
		FileName:   d.StringField(),
		Checksum:   d.StringField(),
		TotalSize:  d.Int(),
		Parts:      d.Int(),
	}
	if kind == msgPiecePetition {
		n := d.Int()
		if err := d.Err(); err != nil {
			return petition{}, err
		}
		if n < 0 || n > p.Parts {
			return petition{}, fmt.Errorf("transfer: piece petition names %d of %d pieces", n, p.Parts)
		}
		if n > d.Remaining() { // each index needs at least 1 byte
			return petition{}, fmt.Errorf("%w: %d piece indices in %d bytes", wire.ErrCorrupt, n, d.Remaining())
		}
		p.Indices = make([]int, 0, n)
		for i := 0; i < n; i++ {
			p.Indices = append(p.Indices, d.Int())
		}
	}
	p.Sender = d.StringField()
	p.SentAt = d.Time()
	return p, d.Finish()
}

// petitionAck carries the receiver's decision and its local receive time
// (comparable across nodes under the simulator's global virtual clock).
type petitionAck struct {
	TransferID uint64
	Accept     bool
	Reason     string
	ReceivedAt time.Time
}

func (p petitionAck) encodeTo(e *wire.Encoder) {
	e.Uint64(p.TransferID)
	e.Bool(p.Accept)
	e.String(p.Reason)
	e.Time(p.ReceivedAt)
}

func decodePetitionAck(d *wire.Decoder) (petitionAck, error) {
	return petitionAck{
		TransferID: d.Uint64(),
		Accept:     d.Bool(),
		Reason:     d.StringField(),
		ReceivedAt: d.Time(),
	}, d.Finish()
}

// partHeader describes one part; for real files the bytes follow in Data.
type partHeader struct {
	TransferID uint64
	Index      int
	Offset     int
	Size       int
	Data       []byte
}

func (p partHeader) encodeTo(e *wire.Encoder) {
	e.Uint64(p.TransferID)
	e.Int(p.Index)
	e.Int(p.Offset)
	e.Int(p.Size)
	e.BytesField(p.Data)
}

func decodePart(d *wire.Decoder) (partHeader, error) {
	p := partHeader{
		TransferID: d.Uint64(),
		Index:      d.Int(),
		Offset:     d.Int(),
		Size:       d.Int(),
	}
	// The bytes stay in the payload, which the receiver owns (pipe.Message)
	// and Join copies out of.
	if p.Data = d.BytesField(); len(p.Data) == 0 {
		p.Data = nil
	}
	return p, d.Finish()
}

// partAck is the paper's application-level confirmation: "the peer should
// confirm correct reception of the file and its availability to receive
// another part".
type partAck struct {
	TransferID  uint64
	Index       int
	OK          bool
	Reason      string
	DeliveredAt time.Time // receiver-local delivery time of the part
	Ready       bool      // ready for the next part
}

func (p partAck) encodeTo(e *wire.Encoder) {
	e.Uint64(p.TransferID)
	e.Int(p.Index)
	e.Bool(p.OK)
	e.String(p.Reason)
	e.Time(p.DeliveredAt)
	e.Bool(p.Ready)
}

func decodePartAck(d *wire.Decoder) (partAck, error) {
	return partAck{
		TransferID:  d.Uint64(),
		Index:       d.Int(),
		OK:          d.Bool(),
		Reason:      d.StringField(),
		DeliveredAt: d.Time(),
		Ready:       d.Bool(),
	}, d.Finish()
}
