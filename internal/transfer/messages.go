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

// petition announces an incoming file and its granularity.
type petition struct {
	TransferID uint64
	FileName   string
	Checksum   string
	TotalSize  int
	Parts      int
	Sender     string
	SentAt     time.Time
}

func (p petition) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(msgPetition)
	e.Uint64(p.TransferID)
	e.String(p.FileName)
	e.String(p.Checksum)
	e.Int(p.TotalSize)
	e.Int(p.Parts)
	e.String(p.Sender)
	e.Time(p.SentAt)
	return e.Detach()
}

func decodePetition(d *wire.Decoder) (petition, error) {
	p := petition{
		TransferID: d.Uint64(),
		FileName:   d.StringField(),
		Checksum:   d.StringField(),
		TotalSize:  d.Int(),
		Parts:      d.Int(),
		Sender:     d.StringField(),
		SentAt:     d.Time(),
	}
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

func (p petitionAck) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(msgPetitionAck)
	e.Uint64(p.TransferID)
	e.Bool(p.Accept)
	e.String(p.Reason)
	e.Time(p.ReceivedAt)
	return e.Detach()
}

func decodePetitionAck(d *wire.Decoder) (petitionAck, error) {
	p := petitionAck{
		TransferID: d.Uint64(),
		Accept:     d.Bool(),
		Reason:     d.StringField(),
		ReceivedAt: d.Time(),
	}
	return p, d.Finish()
}

// piecePetition announces a piece-indexed transmission: a subset of the
// file's canonical split, identified by original piece indices. It is a
// new message kind — the whole-file petition keeps its exact frame bytes,
// so the simulated timing (and with it every pre-dissemination golden) is
// untouched. The receiver replies with the standard petitionAck and then
// standard partAcks.
type piecePetition struct {
	TransferID uint64
	FileName   string
	Checksum   string
	TotalSize  int
	Pieces     int   // the canonical split's piece count
	Indices    []int // which pieces this transmission carries
	Sender     string
	SentAt     time.Time
}

func (p piecePetition) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(msgPiecePetition)
	e.Uint64(p.TransferID)
	e.String(p.FileName)
	e.String(p.Checksum)
	e.Int(p.TotalSize)
	e.Int(p.Pieces)
	e.Int(len(p.Indices))
	for _, i := range p.Indices {
		e.Int(i)
	}
	e.String(p.Sender)
	e.Time(p.SentAt)
	return e.Detach()
}

func decodePiecePetition(d *wire.Decoder) (piecePetition, error) {
	p := piecePetition{
		TransferID: d.Uint64(),
		FileName:   d.StringField(),
		Checksum:   d.StringField(),
		TotalSize:  d.Int(),
		Pieces:     d.Int(),
	}
	n := d.Int()
	if err := d.Err(); err != nil {
		return piecePetition{}, err
	}
	if n < 0 || n > p.Pieces {
		return piecePetition{}, fmt.Errorf("transfer: piece petition names %d of %d pieces", n, p.Pieces)
	}
	if n > d.Remaining() { // each index needs at least 1 byte
		return piecePetition{}, fmt.Errorf("%w: %d piece indices in %d bytes", wire.ErrCorrupt, n, d.Remaining())
	}
	p.Indices = make([]int, 0, n)
	for i := 0; i < n; i++ {
		idx := d.Int()
		if err := d.Err(); err != nil {
			return piecePetition{}, err
		}
		p.Indices = append(p.Indices, idx)
	}
	p.Sender = d.StringField()
	p.SentAt = d.Time()
	return p, d.Finish()
}

// partHeader describes one part; for real files the bytes follow in Data.
type partHeader struct {
	TransferID uint64
	Index      int
	Offset     int
	Size       int
	Data       []byte
}

func (p partHeader) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(msgPart)
	e.Uint64(p.TransferID)
	e.Int(p.Index)
	e.Int(p.Offset)
	e.Int(p.Size)
	e.BytesField(p.Data)
	return e.Detach()
}

func decodePart(d *wire.Decoder) (partHeader, error) {
	p := partHeader{
		TransferID: d.Uint64(),
		Index:      d.Int(),
		Offset:     d.Int(),
		Size:       d.Int(),
	}
	p.Data = append([]byte(nil), d.BytesField()...)
	if len(p.Data) == 0 {
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

func (p partAck) encode() []byte {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(msgPartAck)
	e.Uint64(p.TransferID)
	e.Int(p.Index)
	e.Bool(p.OK)
	e.String(p.Reason)
	e.Time(p.DeliveredAt)
	e.Bool(p.Ready)
	return e.Detach()
}

func decodePartAck(d *wire.Decoder) (partAck, error) {
	p := partAck{
		TransferID:  d.Uint64(),
		Index:       d.Int(),
		OK:          d.Bool(),
		Reason:      d.StringField(),
		DeliveredAt: d.Time(),
		Ready:       d.Bool(),
	}
	return p, d.Finish()
}

// decodeKind strips and returns the type byte.
func decodeKind(payload []byte) (byte, *wire.Decoder, error) {
	d := wire.NewDecoder(payload)
	k := d.Byte()
	if err := d.Err(); err != nil {
		return 0, nil, fmt.Errorf("transfer: %w", err)
	}
	return k, d, nil
}
