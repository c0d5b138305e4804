package wire

import (
	"bytes"
	"errors"
	"math"
	"testing"
	"testing/quick"
	"time"
)

func TestUint64Roundtrip(t *testing.T) {
	for _, v := range []uint64{0, 1, 127, 128, 1 << 20, math.MaxUint64} {
		e := NewEncoder(16)
		e.Uint64(v)
		d := NewDecoder(e.Bytes())
		if got := d.Uint64(); got != v || d.Err() != nil {
			t.Fatalf("Uint64(%d) roundtrip = %d, err %v", v, got, d.Err())
		}
	}
}

func TestInt64Roundtrip(t *testing.T) {
	for _, v := range []int64{0, 1, -1, 63, -64, math.MaxInt64, math.MinInt64} {
		e := NewEncoder(16)
		e.Int64(v)
		d := NewDecoder(e.Bytes())
		if got := d.Int64(); got != v || d.Err() != nil {
			t.Fatalf("Int64(%d) roundtrip = %d, err %v", v, got, d.Err())
		}
	}
}

func TestMixedRoundtrip(t *testing.T) {
	e := NewEncoder(64)
	e.Uint64(42)
	e.Int(-7)
	e.Bool(true)
	e.Bool(false)
	e.Byte(0xAB)
	e.Float64(3.14159)
	e.String("peer-selection")
	e.BytesField([]byte{1, 2, 3})
	e.Duration(250 * time.Millisecond)
	ts := time.Date(2007, 3, 1, 12, 0, 0, 0, time.UTC)
	e.Time(ts)
	e.StringSlice([]string{"a", "bb", ""})

	d := NewDecoder(e.Bytes())
	if v := d.Uint64(); v != 42 {
		t.Fatalf("Uint64 = %d", v)
	}
	if v := d.Int(); v != -7 {
		t.Fatalf("Int = %d", v)
	}
	if !d.Bool() || d.Bool() {
		t.Fatal("Bool sequence wrong")
	}
	if v := d.Byte(); v != 0xAB {
		t.Fatalf("Byte = %x", v)
	}
	if v := d.Float64(); v != 3.14159 {
		t.Fatalf("Float64 = %v", v)
	}
	if v := d.StringField(); v != "peer-selection" {
		t.Fatalf("String = %q", v)
	}
	if v := d.BytesField(); !bytes.Equal(v, []byte{1, 2, 3}) {
		t.Fatalf("Bytes = %v", v)
	}
	if v := d.Duration(); v != 250*time.Millisecond {
		t.Fatalf("Duration = %v", v)
	}
	if v := d.Time(); !v.Equal(ts) {
		t.Fatalf("Time = %v", v)
	}
	if v := d.StringSlice(); len(v) != 3 || v[0] != "a" || v[1] != "bb" || v[2] != "" {
		t.Fatalf("StringSlice = %v", v)
	}
	if err := d.Finish(); err != nil {
		t.Fatalf("Finish: %v", err)
	}
}

func TestDecoderShortBuffer(t *testing.T) {
	d := NewDecoder(nil)
	d.Uint64()
	if !errors.Is(d.Err(), ErrShort) {
		t.Fatalf("err = %v, want ErrShort", d.Err())
	}
}

func TestDecoderErrorSticks(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(5)
	d := NewDecoder(e.Bytes())
	d.Float64() // needs 8 bytes, only 1 available
	first := d.Err()
	if first == nil {
		t.Fatal("expected error")
	}
	d.Uint64()
	d.StringField()
	if d.Err() != first {
		t.Fatalf("error changed from %v to %v", first, d.Err())
	}
}

func TestDecoderCorruptLengthPrefix(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(1 << 40) // length prefix far larger than buffer
	d := NewDecoder(e.Bytes())
	d.BytesField()
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", d.Err())
	}
}

func TestDecoderCorruptSliceCount(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(1 << 30)
	d := NewDecoder(e.Bytes())
	d.StringSlice()
	if !errors.Is(d.Err(), ErrCorrupt) {
		t.Fatalf("StringSlice err = %v, want ErrCorrupt", d.Err())
	}
}

// referenceStringSlice is StringSlice as it read before the scan: one
// StringField per counted entry, stopping at the first error.
func referenceStringSlice(d *Decoder) []string {
	n := d.Uint64()
	if d.err != nil {
		return nil
	}
	if n > uint64(d.Remaining()) {
		d.fail(ErrCorrupt)
		return nil
	}
	ss := []string{}
	for i := uint64(0); i < n; i++ {
		ss = append(ss, d.StringField())
		if d.err != nil {
			return nil
		}
	}
	return ss
}

// TestStringSliceHostileCountAllocatesNothing: a frame whose claimed count
// equals its length passes the count check, and used to reserve 16 bytes per
// claimed entry before reading one. Now a count the entries do not bear out
// allocates nothing and fails exactly where the entry-by-entry decode does;
// a well-formed slice decodes to the same values in one allocation for the
// slice plus one per non-empty string, as before.
func TestStringSliceHostileCountAllocatesNothing(t *testing.T) {
	hostile := make([]byte, 4096) // count 4094, then 4093 zero-length strings and a length of 0x80... cut short
	hostile[0], hostile[1] = 0xFE, 0x1F
	hostile[len(hostile)-1] = 0x80
	if allocs := testing.AllocsPerRun(20, func() {
		d := Decoder{buf: hostile}
		if ss := d.StringSlice(); ss != nil || !errors.Is(d.Err(), ErrShort) {
			t.Fatalf("StringSlice = %d strings, err %v; want ErrShort", len(ss), d.Err())
		}
	}); allocs > 0 {
		t.Fatalf("%v allocations for a count the input does not bear out", allocs)
	}
	e := NewEncoder(64)
	e.StringSlice([]string{"sc1", "", "planetlab1.hiit.fi", "sc4"})
	good := e.Bytes()
	var got []string
	if allocs := testing.AllocsPerRun(20, func() { got = NewDecoder(good).StringSlice() }); allocs != 4 {
		t.Errorf("%v allocations for a slice of three non-empty strings, want 4", allocs)
	}
	if len(got) != 4 || got[0] != "sc1" || got[1] != "" || got[2] != "planetlab1.hiit.fi" || got[3] != "sc4" {
		t.Fatalf("StringSlice = %q", got)
	}
	// Every truncation and every single-byte corruption of the honest frame,
	// and the empty slice: same strings, same error, as the reference.
	inputs := [][]byte{{0x00}, hostile}
	for cut := 0; cut < len(good); cut++ {
		inputs = append(inputs, good[:cut])
	}
	for i := range good {
		for _, v := range []byte{0x00, 0x7F, 0x80, 0xFF} {
			buf := append([]byte(nil), good...)
			buf[i] = v
			inputs = append(inputs, buf)
		}
	}
	for _, in := range inputs {
		d, ref := NewDecoder(in), NewDecoder(in)
		got, want := d.StringSlice(), referenceStringSlice(ref)
		if (got == nil) != (want == nil) || len(got) != len(want) {
			t.Fatalf("%x: StringSlice = %q, reference %q", in, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%x: StringSlice = %q, reference %q", in, got, want)
			}
		}
		if (d.Err() == nil) != (ref.Err() == nil) || errors.Is(d.Err(), ErrShort) != errors.Is(ref.Err(), ErrShort) {
			t.Fatalf("%x: err %v, reference err %v", in, d.Err(), ref.Err())
		}
		if d.Err() == nil && d.Remaining() != ref.Remaining() {
			t.Fatalf("%x: %d bytes left, reference leaves %d", in, d.Remaining(), ref.Remaining())
		}
	}
}

func TestFinishRejectsTrailingBytes(t *testing.T) {
	e := NewEncoder(8)
	e.Uint64(1)
	e.Uint64(2)
	d := NewDecoder(e.Bytes())
	d.Uint64()
	if err := d.Finish(); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Finish = %v, want ErrCorrupt", err)
	}
}

func TestEncoderReset(t *testing.T) {
	e := NewEncoder(8)
	e.String("hello")
	e.Reset()
	if e.Len() != 0 {
		t.Fatalf("Len after Reset = %d", e.Len())
	}
	e.Uint64(9)
	d := NewDecoder(e.Bytes())
	if v := d.Uint64(); v != 9 || d.Finish() != nil {
		t.Fatalf("post-reset roundtrip = %d", v)
	}
}

func TestPropertyUint64Roundtrip(t *testing.T) {
	f := func(v uint64) bool {
		e := NewEncoder(16)
		e.Uint64(v)
		d := NewDecoder(e.Bytes())
		return d.Uint64() == v && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyInt64Roundtrip(t *testing.T) {
	f := func(v int64) bool {
		e := NewEncoder(16)
		e.Int64(v)
		d := NewDecoder(e.Bytes())
		return d.Int64() == v && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStringRoundtrip(t *testing.T) {
	f := func(s string) bool {
		e := NewEncoder(len(s) + 8)
		e.String(s)
		d := NewDecoder(e.Bytes())
		return d.StringField() == s && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyBytesRoundtrip(t *testing.T) {
	f := func(b []byte) bool {
		e := NewEncoder(len(b) + 8)
		e.BytesField(b)
		d := NewDecoder(e.Bytes())
		return bytes.Equal(d.BytesField(), b) && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyFloat64Roundtrip(t *testing.T) {
	f := func(v float64) bool {
		e := NewEncoder(16)
		e.Float64(v)
		d := NewDecoder(e.Bytes())
		got := d.Float64()
		if math.IsNaN(v) {
			return math.IsNaN(got)
		}
		return got == v && d.Finish() == nil
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyStringSliceRoundtrip(t *testing.T) {
	f := func(ss []string) bool {
		e := NewEncoder(64)
		e.StringSlice(ss)
		d := NewDecoder(e.Bytes())
		got := d.StringSlice()
		if d.Finish() != nil || len(got) != len(ss) {
			return false
		}
		for i := range ss {
			if got[i] != ss[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPropertyDecoderNeverPanics(t *testing.T) {
	// Feeding arbitrary bytes through every decode method must never panic.
	f := func(b []byte) (ok bool) {
		defer func() {
			if recover() != nil {
				ok = false
			}
		}()
		d := NewDecoder(b)
		d.Uint64()
		d.Int64()
		d.Bool()
		d.Float64()
		d.StringField()
		d.BytesField()
		d.StringSlice()
		d.Time()
		d.Duration()
		_ = d.Finish()
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestFrameRoundtrip(t *testing.T) {
	var buf bytes.Buffer
	payloads := [][]byte{{}, {1}, bytes.Repeat([]byte{0xCC}, 70000)}
	for _, p := range payloads {
		if err := WriteFrame(&buf, p); err != nil {
			t.Fatalf("WriteFrame: %v", err)
		}
	}
	for i, p := range payloads {
		got, err := ReadFrame(&buf)
		if err != nil {
			t.Fatalf("ReadFrame %d: %v", i, err)
		}
		if !bytes.Equal(got, p) {
			t.Fatalf("frame %d: got %d bytes, want %d", i, len(got), len(p))
		}
	}
}

func TestReadFrameRejectsHugeLength(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0xFF, 0xFF, 0xFF, 0xFF})
	if _, err := ReadFrame(&buf); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("ReadFrame = %v, want ErrCorrupt", err)
	}
}

func TestReadFrameShortPayload(t *testing.T) {
	var buf bytes.Buffer
	buf.Write([]byte{0, 0, 0, 10, 1, 2}) // claims 10 bytes, has 2
	if _, err := ReadFrame(&buf); err == nil {
		t.Fatal("ReadFrame succeeded on truncated payload")
	}
}

func TestEncoderPoolRoundtrip(t *testing.T) {
	e := GetEncoder()
	if e.Len() != 0 {
		t.Fatalf("pooled encoder not empty: %d bytes", e.Len())
	}
	e.Uint64(7)
	e.String("peer")
	detached := e.Detach()
	PutEncoder(e)

	// The detached copy must survive arbitrary reuse of the pooled encoder.
	e2 := GetEncoder()
	for i := 0; i < 64; i++ {
		e2.String("overwrite-the-backing-array")
	}
	d := NewDecoder(detached)
	if got := d.Uint64(); got != 7 {
		t.Fatalf("Uint64 = %d, want 7", got)
	}
	if got := d.StringField(); got != "peer" {
		t.Fatalf("String = %q, want peer", got)
	}
	if err := d.Finish(); err != nil {
		t.Fatal(err)
	}
	PutEncoder(e2)
}

func TestPutEncoderDropsOversizedBuffers(t *testing.T) {
	e := GetEncoder()
	e.BytesField(make([]byte, maxPooledEncoder+1))
	PutEncoder(e) // must not panic; oversized buffer is simply not pooled
	if got := GetEncoder(); got.Len() != 0 {
		t.Fatalf("encoder from pool not reset: %d bytes", got.Len())
	}
}

// sharedAndCopied decodes b as: n strings, a string slice, one more string —
// once with SharedStringField and once with StringField.
func sharedAndCopied(b []byte, n int) (shared, copied []string, sharedErr, copiedErr error) {
	decode := func(share bool) ([]string, error) {
		d := NewDecoder(b)
		field := d.StringField
		if share {
			field = d.SharedStringField
		}
		var out []string
		for i := 0; i < n; i++ {
			out = append(out, field())
		}
		out = append(out, d.StringSlice()...)
		out = append(out, field())
		return out, d.Finish()
	}
	shared, sharedErr = decode(true)
	copied, copiedErr = decode(false)
	return
}

func TestSharedStringFieldDecodesWhatStringFieldDecodes(t *testing.T) {
	words := []string{"", "a", "sc1.planetlab", "", "héllo", string(bytes.Repeat([]byte{'x'}, 300))}
	e := NewEncoder(512)
	for _, w := range words {
		e.String(w)
	}
	e.StringSlice(words)
	e.String("")
	full := e.Bytes()
	// Every truncation too: the two must agree on values and errors.
	for cut := 0; cut <= len(full); cut++ {
		shared, copied, sErr, cErr := sharedAndCopied(full[:cut], len(words))
		if (sErr == nil) != (cErr == nil) || errors.Is(sErr, ErrShort) != errors.Is(cErr, ErrShort) ||
			errors.Is(sErr, ErrCorrupt) != errors.Is(cErr, ErrCorrupt) {
			t.Fatalf("cut %d: shared error %v, copying error %v", cut, sErr, cErr)
		}
		if len(shared) != len(copied) {
			t.Fatalf("cut %d: %d strings shared, %d copied", cut, len(shared), len(copied))
		}
		for i := range shared {
			if shared[i] != copied[i] {
				t.Fatalf("cut %d: string %d = %q shared, %q copied", cut, i, shared[i], copied[i])
			}
		}
	}
	// The decoded strings survive the input buffer being overwritten: they
	// are substrings of a copy, not of the caller's bytes.
	shared, _, _, _ := sharedAndCopied(full, len(words))
	for i := range full {
		full[i] = 0xEE
	}
	for i, w := range words {
		if shared[i] != w {
			t.Fatalf("string %d = %q after the buffer was overwritten, want %q", i, shared[i], w)
		}
	}
}

func TestSharedStringFieldAllocatesOnce(t *testing.T) {
	e := NewEncoder(4096)
	const n = 200
	for i := 0; i < n; i++ {
		e.String("peer-name-of-some-length")
	}
	b := e.Bytes()
	var keep [n]string
	allocs := testing.AllocsPerRun(50, func() {
		d := NewDecoder(b)
		for i := range keep {
			keep[i] = d.SharedStringField()
		}
		if err := d.Finish(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 1 {
		t.Fatalf("%v allocations to decode %d shared strings, want 1", allocs, n)
	}
}
