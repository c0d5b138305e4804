// Package wire implements the compact binary codec used by every overlay
// protocol message.
//
// The format is deliberately simple and self-contained (no reflection, no
// third-party dependency): unsigned varints for integers, length-prefixed
// byte strings, and a fixed little-endian encoding for 64-bit scalars where
// range is known. Encoders never fail; decoders validate lengths and report
// ErrCorrupt/ErrShort rather than panicking on malformed input.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"
)

var (
	// ErrShort is reported when a decoder runs out of bytes.
	ErrShort = errors.New("wire: short buffer")
	// ErrCorrupt is reported when a decoder meets an impossible value, such
	// as a length prefix larger than the remaining input.
	ErrCorrupt = errors.New("wire: corrupt input")
)

// MaxStringLen bounds decoded string and byte-slice lengths to protect
// against hostile or corrupt length prefixes.
const MaxStringLen = 256 << 20 // 256 MiB

// Encoder appends primitive values to a byte slice.
// The zero value is ready to use.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an encoder with capacity hint n.
func NewEncoder(n int) *Encoder {
	return &Encoder{buf: make([]byte, 0, n)}
}

// Bytes returns the encoded buffer. The encoder retains ownership: a caller
// may lend it (a frame head, which SendFrame copies) but must Detach to keep
// it across further encoder use or to give it away (a message body).
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of encoded bytes so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset truncates the encoder for reuse, keeping the allocation.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// Detach returns a copy of the encoded bytes that stays valid after the
// encoder is reset or returned to the pool: the form a sent body takes.
func (e *Encoder) Detach() []byte {
	return append([]byte(nil), e.buf...)
}

// maxPooledEncoder caps the buffer capacity kept in the encoder pool so a
// single huge message (e.g. a whole file part) does not pin memory forever.
const maxPooledEncoder = 64 << 10

// encoderPool recycles encoders for the protocol hot path: every overlay,
// transfer and transport message encode otherwise allocates a fresh buffer.
var encoderPool = sync.Pool{
	New: func() any { return &Encoder{buf: make([]byte, 0, 512)} },
}

// GetEncoder returns an empty pooled encoder. Pair with PutEncoder; the
// buffer (and anything returned by Bytes) is invalid after PutEncoder, so
// callers that keep the encoding use Detach first.
func GetEncoder() *Encoder {
	return encoderPool.Get().(*Encoder)
}

// PutEncoder resets e and returns it to the pool. Oversized buffers are
// dropped rather than pooled.
func PutEncoder(e *Encoder) {
	if cap(e.buf) > maxPooledEncoder {
		return
	}
	e.Reset()
	encoderPool.Put(e)
}

// Frame encodes a message, tag then what fill encodes, into a buffer of its
// own: a pooled encoder's bytes, detached, since a sent payload is given up
// to its receiver. Every message type encodes its fields untagged, so one
// message's fields can ride inside another's frame.
func Frame(tag byte, fill func(*Encoder)) []byte {
	e := GetEncoder()
	defer PutEncoder(e)
	e.Byte(tag)
	fill(e)
	return e.Detach()
}

// Uint64 appends v as an unsigned varint.
func (e *Encoder) Uint64(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// Int64 appends v using zig-zag varint encoding.
func (e *Encoder) Int64(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// Int appends v as a zig-zag varint.
func (e *Encoder) Int(v int) { e.Int64(int64(v)) }

// Byte appends a single byte.
func (e *Encoder) Byte(b byte) { e.buf = append(e.buf, b) }

// Bool appends a boolean as one byte.
func (e *Encoder) Bool(v bool) {
	if v {
		e.Byte(1)
	} else {
		e.Byte(0)
	}
}

// Float64 appends v as a fixed 8-byte IEEE-754 value.
func (e *Encoder) Float64(v float64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, math.Float64bits(v))
}

// Duration appends a time.Duration as a zig-zag varint of nanoseconds.
func (e *Encoder) Duration(d time.Duration) { e.Int64(int64(d)) }

// Time appends t as nanoseconds since the Unix epoch.
func (e *Encoder) Time(t time.Time) { e.Int64(t.UnixNano()) }

// Bytes appends b with a varint length prefix.
func (e *Encoder) BytesField(b []byte) {
	e.Uint64(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// String appends s with a varint length prefix.
func (e *Encoder) String(s string) {
	e.Uint64(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// StringSlice appends a count-prefixed slice of strings.
func (e *Encoder) StringSlice(ss []string) {
	e.Uint64(uint64(len(ss)))
	for _, s := range ss {
		e.String(s)
	}
}

// Decoder consumes primitive values from a byte slice. Methods record the
// first error and make every later call a no-op returning zero values, so
// call sites can decode a full struct and check Err once.
type Decoder struct {
	buf []byte
	off int
	err error
	// str is string(buf) once SharedStringField has needed it.
	str string
}

// NewDecoder returns a decoder over buf. The decoder does not copy buf.
func NewDecoder(buf []byte) *Decoder { return &Decoder{buf: buf} }

// Tag reads a frame's type tag and returns a decoder over its fields; an
// empty frame is ErrShort. Inlined, its decoder stays on the caller's stack.
func Tag(frame []byte) (byte, *Decoder, error) {
	d := NewDecoder(frame)
	if k := d.Byte(); d.err == nil {
		return k, d, nil
	}
	return 0, nil, ErrShort
}

// Err returns the first decoding error, if any.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

// Finish reports an error if bytes remain undecoded or a prior error
// occurred; protocol handlers use it to reject trailing garbage.
func (d *Decoder) Finish() error {
	if d.err != nil {
		return d.err
	}
	if d.off != len(d.buf) {
		return fmt.Errorf("%w: %d trailing bytes", ErrCorrupt, len(d.buf)-d.off)
	}
	return nil
}

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Uint64 consumes an unsigned varint.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrShort)
		} else {
			d.fail(fmt.Errorf("%w: uvarint overflow", ErrCorrupt))
		}
		return 0
	}
	d.off += n
	return v
}

// Int64 consumes a zig-zag varint.
func (d *Decoder) Int64() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		if n == 0 {
			d.fail(ErrShort)
		} else {
			d.fail(fmt.Errorf("%w: varint overflow", ErrCorrupt))
		}
		return 0
	}
	d.off += n
	return v
}

// Int consumes a zig-zag varint as an int.
func (d *Decoder) Int() int { return int(d.Int64()) }

// Byte consumes a single byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrShort)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool consumes one byte as a boolean; any nonzero value is true.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Float64 consumes a fixed 8-byte IEEE-754 value.
func (d *Decoder) Float64() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrShort)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

// Duration consumes a zig-zag varint of nanoseconds.
func (d *Decoder) Duration() time.Duration { return time.Duration(d.Int64()) }

// Time consumes nanoseconds since the Unix epoch.
func (d *Decoder) Time() time.Time {
	ns := d.Int64()
	if d.err != nil {
		return time.Time{}
	}
	return time.Unix(0, ns).UTC()
}

// BytesField consumes a length-prefixed byte slice. The returned slice
// aliases the decoder's buffer.
func (d *Decoder) BytesField() []byte {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > MaxStringLen {
		d.fail(fmt.Errorf("%w: length %d exceeds limit", ErrCorrupt, n))
		return nil
	}
	if uint64(d.Remaining()) < n {
		d.fail(fmt.Errorf("%w: length %d exceeds remaining %d", ErrCorrupt, n, d.Remaining()))
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// StringField consumes a length-prefixed string.
func (d *Decoder) StringField() string {
	return string(d.BytesField())
}

// SharedStringField is StringField returning a substring of one string copy
// of the whole message, made the first time a non-empty field asks: one
// allocation however many fields follow. That copy lives as long as any one
// field decoded from it, so this is for bulk messages whose strings are kept
// together (a directory reply), not for a message from which one short
// string outlives the rest.
func (d *Decoder) SharedStringField() string {
	b := d.BytesField()
	if len(b) == 0 {
		return ""
	}
	if d.str == "" {
		d.str = string(d.buf)
	}
	return d.str[d.off-len(b) : d.off]
}

// StringSlice consumes a count-prefixed slice of strings. The count sizes
// nothing until every length prefix has been walked on a copy of the
// decoder: a hostile count fails as the decode would, having allocated
// nothing, and an honest one gets its exact-size slice.
func (d *Decoder) StringSlice() []string {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) { // each string needs at least 1 length byte
		d.fail(fmt.Errorf("%w: slice count %d exceeds remaining %d bytes", ErrCorrupt, n, d.Remaining()))
		return nil
	}
	scan := *d
	for i := uint64(0); i < n; i++ {
		scan.BytesField()
	}
	if d.err = scan.err; d.err != nil {
		return nil
	}
	ss := make([]string, n)
	for i := range ss {
		ss[i] = d.StringField()
	}
	return ss
}
