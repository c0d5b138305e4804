// Package jxta provides the JXTA-flavored naming and discovery substrate the
// overlay is built on: peer IDs, advertisements, and a TTL'd advertisement
// cache. The paper's platform (JXTA-Overlay) relies on JXTA for peer
// discovery and peer-resource discovery; brokers act as rendezvous points
// that hold and answer advertisement queries.
//
// Wire compatibility with real JXTA (XML documents) is out of scope; the
// semantics — uniquely identified peers publishing expiring, queryable
// advertisements — are what the overlay needs.
package jxta

import (
	"bytes"
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
	"strings"
	"sync"
	"time"

	"peerlab/internal/wire"
)

// ID is a JXTA-style 128-bit identifier.
type ID [16]byte

// NewID derives a stable ID from a namespace and name (content addressing
// keeps IDs reproducible across runs, which experiment logs rely on). The
// broker derives one per registration and renewal, so the hashed bytes sit in
// a stack buffer while namespace and name fit in 79 bytes.
func NewID(namespace, name string) ID {
	var buf [80]byte
	sum := sha256.Sum256(append(append(append(buf[:0], namespace...), 0), name...))
	var id ID
	copy(id[:], sum[:16])
	return id
}

// String renders the ID in JXTA's urn style.
func (id ID) String() string {
	return "urn:jxta:uuid-" + hex.EncodeToString(id[:])
}

// IsZero reports whether the ID is unset.
func (id ID) IsZero() bool { return id == ID{} }

// AdvKind distinguishes advertisement types.
type AdvKind byte

// Advertisement kinds.
const (
	AdvPeer AdvKind = iota + 1
	AdvPipe
	AdvModule
)

// String names the kind.
func (k AdvKind) String() string {
	switch k {
	case AdvPeer:
		return "peer"
	case AdvPipe:
		return "pipe"
	case AdvModule:
		return "module"
	default:
		return fmt.Sprintf("advkind(%d)", byte(k))
	}
}

// Advertisement is a published, expiring description of a resource.
// It mirrors JXTA's PeerAdvertisement / PipeAdvertisement / ModuleSpec
// structure flattened into one record.
type Advertisement struct {
	Kind    AdvKind
	ID      ID
	Name    string // peer name, pipe name, or module name
	Addr    string // transport address ("node/service"), empty for modules
	Expires time.Time
	// Attrs carries small typed attributes (CPU score, services list...)
	// as ordered key/value pairs for deterministic encoding.
	Attrs []Attr
}

// Attr is one advertisement attribute.
type Attr struct {
	Key   string
	Value string
}

// Attr returns the value for key, or "".
func (a Advertisement) Attr(key string) string {
	for _, kv := range a.Attrs {
		if kv.Key == key {
			return kv.Value
		}
	}
	return ""
}

// WithAttr returns a copy with the attribute set (replacing an existing key).
func (a Advertisement) WithAttr(key, value string) Advertisement {
	out := a
	out.Attrs = append([]Attr(nil), a.Attrs...)
	for i := range out.Attrs {
		if out.Attrs[i].Key == key {
			out.Attrs[i].Value = value
			return out
		}
	}
	out.Attrs = append(out.Attrs, Attr{key, value})
	return out
}

// Encode appends the advertisement to the encoder.
func (a Advertisement) Encode(e *wire.Encoder) {
	e.Byte(byte(a.Kind))
	e.BytesField(a.ID[:])
	e.String(a.Name)
	e.String(a.Addr)
	e.Time(a.Expires)
	e.Uint64(uint64(len(a.Attrs)))
	for _, kv := range a.Attrs {
		e.String(kv.Key)
		e.String(kv.Value)
	}
}

// DecodeAdvertisement consumes one advertisement from the decoder.
func DecodeAdvertisement(d *wire.Decoder) (Advertisement, error) {
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

// Directory is n encoded advertisements that ScanAdvertisements has
// validated and nothing has decoded yet: what a receiver that may never read
// its directory keeps of a reply it owns. It aliases the decoder's buffer.
// A scan and its Decode equal n calls of DecodeAdvertisement field for field
// and error for error.
type Directory struct {
	d        wire.Decoder // at the first advertisement
	n, attrs uint64
}

// ScanAdvertisements consumes n advertisements making every check
// DecodeAdvertisement makes, error for error, and allocating nothing — so a
// hostile count costs nothing — and returns them for Decode.
func ScanAdvertisements(d *wire.Decoder, n uint64) (Directory, error) {
	dir := Directory{d: *d, n: n}
	for i := uint64(0); i < n; i++ {
		d.Byte()
		idb := d.BytesField()
		d.BytesField()
		d.BytesField()
		d.Time()
		k := d.Uint64()
		if err := d.Err(); err != nil {
			return Directory{}, err
		}
		if len(idb) != len(ID{}) {
			return Directory{}, fmt.Errorf("%w: advertisement id of %d bytes", wire.ErrCorrupt, len(idb))
		}
		if k > uint64(d.Remaining()) {
			return Directory{}, fmt.Errorf("%w: %d attrs exceed remaining input", wire.ErrCorrupt, k)
		}
		for j := uint64(0); j < k; j++ {
			d.BytesField()
			d.BytesField()
			if err := d.Err(); err != nil {
				return Directory{}, err
			}
		}
		dir.attrs += k
	}
	return dir, nil
}

// Decode builds the directory: a single exact-size slice, every attribute
// list a slice of one arena (capacity clipped to its length, so appending to
// one never writes into its neighbour), and every string a substring of one
// copy of the message (wire.Decoder.SharedStringField — the directory pins
// that copy, and the copy holds little but the directory's strings). Each
// call builds a new one; none writes the scanned buffer.
func (dir Directory) Decode() []Advertisement {
	if dir.n == 0 {
		return nil
	}
	d := &dir.d
	advs := make([]Advertisement, dir.n)
	arena := make([]Attr, dir.attrs)
	for i := range advs {
		a := &advs[i]
		a.Kind = AdvKind(d.Byte())
		copy(a.ID[:], d.BytesField())
		a.Name = d.SharedStringField()
		a.Addr = d.SharedStringField()
		a.Expires = d.Time()
		if k := d.Uint64(); k > 0 {
			a.Attrs, arena = arena[:k:k], arena[k:]
			for j := range a.Attrs {
				a.Attrs[j] = Attr{d.SharedStringField(), d.SharedStringField()}
			}
		}
	}
	return advs
}

// Cache is a thread-safe advertisement store with TTL expiry and bounded
// size (oldest-expiry eviction), as kept by rendezvous peers and local
// discovery services.
//
// It has one expiry rule: every method that reads or adds entries first
// settles expiry as of the clock (gcLocked), and after that stored means
// live. Nothing else compares an expiry with the clock.
type Cache struct {
	mu    sync.Mutex
	now   func() time.Time
	limit int
	byID  map[ID]Advertisement
	// dirs[kind] holds the kind's entries in canonical order, which every
	// change keeps by binary search: no query scans or sorts.
	dirs [256]kindDir
	// minExpiry is a lower bound on the earliest expiry among entries (zero
	// = unknown, forcing the next gc to scan). While now < minExpiry no
	// entry can be expired, so gcLocked skips its scan — the O(1) fast path
	// every call on a static deployment takes. Renewals leave the bound
	// stale-but-valid: the scan it eventually triggers removes nothing and
	// recomputes it.
	minExpiry time.Time
	// version counts mutations (publish, eviction, removal, expiry).
	version uint64
}

// kindDir is one kind's entries in canonical (Name, ID) order. A whole-kind
// Query hands advs out and marks it shared; the next change copies it first,
// so a result once handed out is never written.
type kindDir struct {
	advs   []Advertisement
	shared bool
}

// edit returns the entries for writing, copied first if handed out.
func (d *kindDir) edit() []Advertisement {
	if d.shared {
		d.advs, d.shared = slices.Clone(d.advs), false
	}
	return d.advs
}

// search returns where (name, id) is or would be, comparing entries in place.
func (d *kindDir) search(name string, id ID) int {
	return sort.Search(len(d.advs), func(k int) bool {
		c := strings.Compare(d.advs[k].Name, name)
		return c > 0 || c == 0 && bytes.Compare(d.advs[k].ID[:], id[:]) >= 0
	})
}

// NewCache returns a cache holding at most limit advertisements (default
// 1024 when limit <= 0); now supplies time and may be nil for wall clock.
func NewCache(limit int, now func() time.Time) *Cache {
	if limit <= 0 {
		limit = 1024
	}
	if now == nil {
		now = time.Now
	}
	return &Cache{now: now, limit: limit, byID: make(map[ID]Advertisement)}
}

// Publish inserts or refreshes an advertisement. Already-expired
// advertisements are ignored.
func (c *Cache) Publish(a Advertisement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if !a.Expires.After(now) {
		return
	}
	c.gcLocked(now)
	old, exists := c.byID[a.ID]
	if !exists && len(c.byID) >= c.limit {
		c.dropLocked(c.oldestLocked())
		c.version++
	}
	if exists && (old.Kind != a.Kind || old.Name != a.Name) {
		c.dropLocked(old) // moved: inserted anew below
	}
	d := &c.dirs[a.Kind]
	if i := d.search(a.Name, a.ID); i < len(d.advs) && d.advs[i].ID == a.ID {
		d.edit()[i] = a
	} else {
		d.advs = slices.Insert(d.edit(), i, a)
	}
	c.byID[a.ID] = a
	c.version++
	if c.minExpiry.IsZero() || a.Expires.Before(c.minExpiry) {
		c.minExpiry = a.Expires
	}
}

// gcLocked removes expired entries — exactly those with Expires <= now,
// whether the minExpiry fast path or the scan runs (while now < minExpiry
// no entry can be expired, by the bound's invariant). Caller holds c.mu.
func (c *Cache) gcLocked(now time.Time) {
	if !c.minExpiry.IsZero() && now.Before(c.minExpiry) {
		return
	}
	var min time.Time
	expired := func(a Advertisement) bool { return !a.Expires.After(now) }
	for k := range c.dirs {
		d, n := &c.dirs[k], len(c.byID)
		for _, a := range d.advs {
			if expired(a) {
				delete(c.byID, a.ID)
				c.version++
			} else if min.IsZero() || a.Expires.Before(min) {
				min = a.Expires
			}
		}
		if len(c.byID) < n { // one pass compacts the kind, copied first if handed out
			d.advs = slices.DeleteFunc(d.edit(), expired)
		}
	}
	c.minExpiry = min
}

// oldestLocked returns the entry closest to expiry, the first in canonical
// order among equals (the one a full cache evicts); zero when empty.
func (c *Cache) oldestLocked() (oldest Advertisement) {
	for _, a := range c.byID {
		if oldest.Expires.IsZero() || cmp.Or(a.Expires.Compare(oldest.Expires), CompareAdvertisements(a, oldest)) < 0 {
			oldest = a
		}
	}
	return oldest
}

// dropLocked deletes the stored entry a.
func (c *Cache) dropLocked(a Advertisement) {
	d := &c.dirs[a.Kind]
	i := d.search(a.Name, a.ID)
	d.advs = slices.Delete(d.edit(), i, i+1)
	delete(c.byID, a.ID)
}

// Lookup returns the advertisement with the given ID, if present and live.
func (c *Cache) Lookup(id ID) (Advertisement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	a, ok := c.byID[id]
	return a, ok
}

// Query returns live advertisements of the kind whose Name matches name
// exactly; empty name matches all, in the canonical (Name, ID) order. A
// named result is the caller's own copy of the name's run, found by binary
// search. A whole-kind result is the kind's directory itself, shared by every
// caller: it must only be read (slicing it is fine), and it stays unchanged
// for as long as the caller holds it — the next change copies the directory
// before writing it.
func (c *Cache) Query(kind AdvKind, name string) []Advertisement {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	d := &c.dirs[kind]
	if name == "" {
		d.shared = true
		return slices.Clip(d.advs)
	}
	i := d.search(name, ID{}) // the zero ID sorts first: the run's start
	j := i + sort.Search(len(d.advs)-i, func(k int) bool { return d.advs[i+k].Name != name })
	return append([]Advertisement(nil), d.advs[i:j]...)
}

// CompareAdvertisements is the canonical (Name, ID) directory order as a
// three-way comparison. Every query answers in it and a sharded directory
// merges by it, so any shard count answers alike.
func CompareAdvertisements(a, b Advertisement) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return bytes.Compare(a.ID[:], b.ID[:])
}

// Sweep settles now: it evicts every advertisement expired at now, as every
// reader does first, and reports how many were dropped. Nothing in the
// overlay calls it; it is kept for the cache's benchmark probe.
func (c *Cache) Sweep(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := len(c.byID)
	c.gcLocked(now)
	return before - len(c.byID)
}

// Clear drops every advertisement — a rendezvous peer restarting with a
// cold cache. Registered peers must re-publish (or be resurrected from
// their next stats report) before the directory answers for them again.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.byID = make(map[ID]Advertisement)
	c.dirs = [256]kindDir{}
	c.minExpiry = time.Time{}
	c.version++
}

// Remove deletes an advertisement by ID.
func (c *Cache) Remove(id ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.byID[id]; ok {
		c.dropLocked(a)
		c.version++
	}
}

// Len reports the number of live advertisements.
func (c *Cache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	return len(c.byID)
}

// LiveLen reports the number of live advertisements of one kind without
// materializing them — O(1) on the static fast path. It always equals
// len(Query(kind, "")).
func (c *Cache) LiveLen(kind AdvKind) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	return len(c.dirs[kind].advs)
}

// Stamp returns the mutation version as of now. Stored means live and every
// change to what is stored — publish, eviction, removal, expiry — advances
// the version, so two equal stamps mean the live set, entries and payloads,
// is identical at both instants. O(1) on the static fast path. The broker's
// rank index and its merged directory key on it.
func (c *Cache) Stamp() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	return c.version
}

// Standard attribute keys used by the overlay.
const (
	AttrCPUScore = "cpu-score"
	AttrCountry  = "country"
	// AttrPieces and AttrUnchoked carry a disseminating peer's piece
	// inventory (comma-joined indices) and currently unchoked hostnames
	// (comma-joined); published by the broker's piece-report handler.
	AttrPieces   = "pieces"
	AttrUnchoked = "unchoked"
)
