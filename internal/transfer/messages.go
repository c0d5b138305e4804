package transfer

import (
	"fmt"
	"time"

	"peerlab/internal/wire"
)

// Message types on a transfer conn.
const (
	msgPetition    byte = 1
	msgPetitionAck byte = 2
	msgPart        byte = 3
	msgPartAck     byte = 4
)

// petition announces an incoming transmission: the file, the part count of
// its canonical split and, when only some parts of that split follow, which.
// The receiver answers with a petitionAck and then a partAck per part.
type petition struct {
	FileName  string
	Checksum  string
	TotalSize int
	Parts     int
	// Indices names the parts this transmission carries, by position in the
	// split. nil means all of them, to be reassembled; it travels as a count
	// of 0, which no piece selection has.
	Indices []int
	Sender  string
}

func (p *petition) encodeTo(e *wire.Encoder) {
	e.String(p.FileName)
	e.String(p.Checksum)
	e.Int(p.TotalSize)
	e.Int(p.Parts)
	e.Int(len(p.Indices))
	for _, i := range p.Indices {
		e.Int(i)
	}
	e.String(p.Sender)
}

// decodePetition decodes the frame that opens a transfer conn: a petition,
// and nothing else. Its three strings share one copy of the frame: the
// transfer keeps them together. A piece list fills room, or outgrows it.
func decodePetition(payload []byte, room []int) (petition, error) {
	kind, d, err := wire.Tag(payload)
	if err != nil {
		return petition{}, err
	}
	if kind != msgPetition {
		return petition{}, fmt.Errorf("transfer: message %d where a petition was expected", kind)
	}
	p := petition{
		FileName:  d.SharedStringField(),
		Checksum:  d.SharedStringField(),
		TotalSize: d.Int(),
		Parts:     d.Int(),
	}
	n := d.Int()
	if err := d.Err(); err != nil {
		return petition{}, err
	}
	if n < 0 || n > max(p.Parts, 0) { // the receiver judges a whole file's part count
		return petition{}, fmt.Errorf("transfer: petition names %d of %d pieces", n, p.Parts)
	}
	if n > d.Remaining() { // each index needs at least 1 byte
		return petition{}, fmt.Errorf("%w: %d piece indices in %d bytes", wire.ErrCorrupt, n, d.Remaining())
	}
	if n > 0 {
		p.Indices = append(room[:0], make([]int, n)...)
		for i := range p.Indices {
			p.Indices[i] = d.Int()
		}
	}
	p.Sender = d.SharedStringField()
	return p, d.Finish()
}

// petitionAck carries the receiver's decision and its local receive time
// (comparable across nodes under the simulator's global virtual clock).
type petitionAck struct {
	Accept     bool
	Reason     string
	ReceivedAt time.Time
}

func (p petitionAck) encodeTo(e *wire.Encoder) {
	e.Bool(p.Accept)
	e.String(p.Reason)
	e.Time(p.ReceivedAt)
}

func decodePetitionAck(d *wire.Decoder) (petitionAck, error) {
	return petitionAck{
		Accept:     d.Bool(),
		Reason:     d.StringField(),
		ReceivedAt: d.Time(),
	}, d.Finish()
}

// A part frame carries a Part: its place in the split and, for real files,
// its bytes.
func (p Part) encodeTo(e *wire.Encoder) {
	e.Int(p.Index)
	e.Int(p.Offset)
	e.Int(p.Size)
	e.BytesField(p.Data)
}

func decodePart(d *wire.Decoder) (Part, error) {
	p := Part{Index: d.Int(), Offset: d.Int(), Size: d.Int()}
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
	Index       int
	OK          bool
	Reason      string
	DeliveredAt time.Time // receiver-local delivery time of the part
}

func (p partAck) encodeTo(e *wire.Encoder) {
	e.Int(p.Index)
	e.Bool(p.OK)
	e.String(p.Reason)
	e.Time(p.DeliveredAt)
}

func decodePartAck(d *wire.Decoder) (partAck, error) {
	return partAck{
		Index:       d.Int(),
		OK:          d.Bool(),
		Reason:      d.StringField(),
		DeliveredAt: d.Time(),
	}, d.Finish()
}
