package jxta

import (
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"
	"time"

	"peerlab/internal/wire"
)

// randomDirectory draws n advertisements with 0–3 attributes each; names,
// addresses, keys and values are empty about one time in five.
func randomDirectory(rng *rand.Rand, n int) []Advertisement {
	str := func() string {
		if rng.Intn(5) == 0 {
			return ""
		}
		b := make([]byte, 1+rng.Intn(24))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	advs := make([]Advertisement, n)
	for i := range advs {
		name := str()
		a := Advertisement{
			Kind:    AdvKind(1 + rng.Intn(3)),
			ID:      NewID("peer", fmt.Sprint(name, i)),
			Name:    name,
			Addr:    str(),
			Expires: base.Add(time.Duration(rng.Int63n(int64(48 * time.Hour)))),
		}
		for k := rng.Intn(4); k > 0; k-- {
			a.Attrs = append(a.Attrs, Attr{str(), str()})
		}
		advs[i] = a
	}
	return advs
}

func encodeAdvertisements(advs []Advertisement) []byte {
	e := wire.NewEncoder(64 * len(advs))
	for _, a := range advs {
		a.Encode(e)
	}
	return e.Bytes()
}

// decodeAdvertisement is the reference the scan path is checked against: one
// advertisement read field by field, each string a copy of its own.
func decodeAdvertisement(d *wire.Decoder) (Advertisement, error) {
	var a Advertisement
	a.Kind = AdvKind(d.Byte())
	idb := d.BytesField()
	a.Name = d.StringField()
	a.Addr = d.StringField()
	a.Expires = d.Time()
	n := d.Uint64()
	if err := d.Err(); err != nil {
		return Advertisement{}, err
	}
	if len(idb) != len(a.ID) {
		return Advertisement{}, fmt.Errorf("%w: advertisement id of %d bytes", wire.ErrCorrupt, len(idb))
	}
	copy(a.ID[:], idb)
	if n > uint64(d.Remaining()) {
		return Advertisement{}, fmt.Errorf("%w: %d attrs exceed remaining input", wire.ErrCorrupt, n)
	}
	for i := uint64(0); i < n; i++ {
		k := d.StringField()
		v := d.StringField()
		if err := d.Err(); err != nil {
			return Advertisement{}, err
		}
		a.Attrs = append(a.Attrs, Attr{k, v})
	}
	return a, d.Err()
}

// loopDecode is the reference the bulk decode must equal: n calls of
// decodeAdvertisement, stopping at the first error.
func loopDecode(d *wire.Decoder, n uint64) ([]Advertisement, error) {
	var advs []Advertisement
	for i := uint64(0); i < n; i++ {
		a, err := decodeAdvertisement(d)
		if err != nil {
			return nil, err
		}
		advs = append(advs, a)
	}
	return advs, nil
}

// bulkDecode is the bulk decode as its callers spell it: scan,
// then decode what validated.
func bulkDecode(d *wire.Decoder, n uint64) ([]Advertisement, error) {
	dir, err := ScanAdvertisements(d, n)
	if err != nil {
		return nil, err
	}
	return dir.Decode(), nil
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, wire.ErrShort):
		return "short"
	case errors.Is(err, wire.ErrCorrupt):
		return "corrupt"
	default:
		return "other: " + err.Error()
	}
}

// checkSameAsLoop decodes buf both ways and fails on any difference in the
// advertisements (nil against empty Attrs included), the error class, or
// the bytes left over.
func checkSameAsLoop(t *testing.T, buf []byte, n uint64, what string) {
	t.Helper()
	ref := wire.NewDecoder(buf)
	want, wantErr := loopDecode(ref, n)
	d := wire.NewDecoder(buf)
	got, err := bulkDecode(d, n)
	if errClass(err) != errClass(wantErr) {
		t.Fatalf("%s: bulk error %v, loop error %v", what, err, wantErr)
	}
	if err != nil {
		if got != nil {
			t.Fatalf("%s: advertisements returned beside error %v", what, err)
		}
		return
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: bulk decode differs from the loop of decodeAdvertisement", what)
	}
	if d.Remaining() != ref.Remaining() {
		t.Fatalf("%s: bulk left %d bytes, loop left %d", what, d.Remaining(), ref.Remaining())
	}
}

func TestBulkDecodeMatchesLoop(t *testing.T) {
	for _, n := range []int{0, 1, 128, 4096} {
		for seed := int64(1); seed <= 3; seed++ {
			rng := rand.New(rand.NewSource(seed))
			buf := encodeAdvertisements(randomDirectory(rng, n))
			what := fmt.Sprintf("n=%d seed=%d", n, seed)
			checkSameAsLoop(t, buf, uint64(n), what)
			checkSameAsLoop(t, append(buf[:len(buf):len(buf)], 0xFF, 0x01), uint64(n), what+" + trailing bytes")
			// A count beyond what the input holds fails like the loop does.
			checkSameAsLoop(t, buf, uint64(n)+1, what+" count+1")
		}
	}
}

func TestBulkDecodeEveryTruncation(t *testing.T) {
	for _, n := range []int{1, 3, 128, 4096} {
		rng := rand.New(rand.NewSource(int64(n)))
		buf := encodeAdvertisements(randomDirectory(rng, n))
		step := 1
		if n > 128 { // every offset of 400 KB is quadratic; sample it
			step = len(buf)/512 + 1
		}
		for cut := 0; cut < len(buf); cut += step {
			checkSameAsLoop(t, buf[:cut], uint64(n), fmt.Sprintf("n=%d cut at %d of %d", n, cut, len(buf)))
		}
	}
}

func TestBulkDecodeCorruptFields(t *testing.T) {
	a := sampleAdv()
	e := wire.NewEncoder(128)
	a.Encode(e)
	good := e.Bytes()
	// Every single-byte corruption: whatever the loop makes of it, the bulk
	// decode makes the same.
	for i := range good {
		for _, v := range []byte{0x00, 0x7F, 0x80, 0xFF} {
			buf := append([]byte(nil), good...)
			buf[i] = v
			checkSameAsLoop(t, buf, 1, fmt.Sprintf("byte %d = %#x", i, v))
		}
	}
}

func TestBulkDecodeHostileCountAllocatesNothing(t *testing.T) {
	buf := encodeAdvertisements(randomDirectory(rand.New(rand.NewSource(9)), 2))
	allocs := testing.AllocsPerRun(20, func() {
		if _, err := bulkDecode(wire.NewDecoder(buf), 1<<60); !errors.Is(err, wire.ErrShort) {
			t.Fatalf("err = %v, want ErrShort", err)
		}
	})
	if allocs > 0 {
		t.Fatalf("%v allocations for a count the input cannot hold", allocs)
	}
}

// TestBulkDecodeAttrsDoNotAlias appends to one decoded advertisement's
// attributes and WithAttr's it: its neighbours in the shared arena, and the
// advertisement itself, must be left as decoded.
func TestBulkDecodeAttrsDoNotAlias(t *testing.T) {
	src := []Advertisement{sampleAdv(), sampleAdv(), sampleAdv()}
	for i := range src {
		src[i].Name = fmt.Sprint("sc", i)
		src[i].Attrs = []Attr{{AttrCPUScore, fmt.Sprint(i)}, {"country", "ES"}}
	}
	buf := encodeAdvertisements(src)
	decode := func() []Advertisement {
		advs, err := bulkDecode(wire.NewDecoder(buf), uint64(len(src)))
		if err != nil {
			t.Fatal(err)
		}
		return advs
	}
	got, want := decode(), decode()
	if c := cap(got[1].Attrs); c != len(got[1].Attrs) {
		t.Fatalf("attrs capacity %d exceeds length %d: append would write into the arena", c, len(got[1].Attrs))
	}
	_ = append(got[1].Attrs, Attr{"spill", "over"})
	changed := got[1].WithAttr(AttrCPUScore, "9").WithAttr("new", "v")
	if changed.Attr(AttrCPUScore) != "9" || changed.Attr("new") != "v" {
		t.Fatalf("WithAttr lost its edits: %+v", changed.Attrs)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("editing one advertisement changed the directory:\n got %+v\nwant %+v", got, want)
	}
}

// TestWholeKindQueryResultIsNeverWritten holds a Query(AdvPeer, "") result
// across every kind of later mutation, with readers scanning it concurrently
// so the race detector sees any write.
func TestWholeKindQueryResultIsNeverWritten(t *testing.T) {
	now, cur := clockAt(base)
	c := NewCache(16, now)
	for i := 0; i < 8; i++ {
		a := sampleAdv()
		a.Name = fmt.Sprint("sc", i)
		a.ID = NewID("peer", a.Name)
		a.Expires = base.Add(time.Duration(i+1) * time.Minute)
		c.Publish(a)
	}
	held := c.Query(AdvPeer, "")
	want := append([]Advertisement(nil), held...)
	if len(held) != 8 {
		t.Fatalf("query returned %d advertisements, want 8", len(held))
	}

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				for _, a := range held {
					_ = a.Attr("country")
				}
			}
		}()
	}
	renewed := held[3].WithAttr("country", "FI")
	renewed.Expires = base.Add(time.Hour)
	c.Publish(renewed) // replaces an entry the held result contains
	extra := sampleAdv()
	extra.Name, extra.ID = "aaa-first", NewID("peer", "aaa-first")
	c.Publish(extra) // sorts ahead of everything held
	if got := c.Query(AdvPeer, ""); len(got) != 9 || got[0].Name != "aaa-first" {
		t.Fatalf("fresh query does not see the publishes: %d entries", len(got))
	}
	*cur = base.Add(5 * time.Minute)
	if n := c.Sweep(now()); n != 4 { // sc0–sc4 lapsed, sc3 was renewed
		t.Fatalf("Sweep evicted %d, want 4", n)
	}
	c.Query(AdvPeer, "")
	c.Clear()
	if got := c.Query(AdvPeer, ""); len(got) != 0 {
		t.Fatalf("query after Clear returned %d entries", len(got))
	}
	close(stop)
	wg.Wait()
	if !reflect.DeepEqual(held, want) {
		t.Fatalf("a held query result changed under later cache mutations:\n got %+v\nwant %+v", held, want)
	}
}
