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
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"strings"
	"sync"
	"time"

	"peerlab/internal/wire"
)

// ID is a JXTA-style 128-bit identifier.
type ID [16]byte

// NewID derives a stable ID from a namespace and name (content addressing
// keeps IDs reproducible across runs, which experiment logs rely on).
func NewID(namespace, name string) ID {
	sum := sha256.Sum256([]byte(namespace + "\x00" + name))
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
	// kindLen counts entries per kind, so LiveLen answers in O(1).
	kindLen map[AdvKind]int
	// minExpiry is a lower bound on the earliest expiry among entries (zero
	// = unknown, forcing the next gc to scan). While now < minExpiry no
	// entry can be expired, so gcLocked skips its scan — the O(1) fast path
	// every call on a static deployment takes. Renewals leave the bound
	// stale-but-valid: the scan it eventually triggers removes nothing and
	// recomputes it.
	minExpiry time.Time
	// version counts mutations (publish, eviction, expiry removal); memo
	// holds the last whole-kind query result per kind, current while the
	// version matches. Selection queries the full peer directory far more
	// often than leases renew it, so the memo turns the common Query("")
	// from an O(n log n) scan-and-sort into handing out a prebuilt slice.
	version uint64
	memo    map[AdvKind]*kindMemo
}

// kindMemo is one memoized whole-kind query result. Query hands result out,
// so a memo is immutable once built.
type kindMemo struct {
	result  []Advertisement
	version uint64
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
	return &Cache{now: now, limit: limit, byID: make(map[ID]Advertisement), kindLen: make(map[AdvKind]int, 3)}
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
		c.evictOldestLocked()
	}
	if exists {
		c.kindLen[old.Kind]--
	}
	c.kindLen[a.Kind]++
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
	for id, a := range c.byID {
		if !a.Expires.After(now) {
			delete(c.byID, id)
			c.kindLen[a.Kind]--
			c.version++
			continue
		}
		if min.IsZero() || a.Expires.Before(min) {
			min = a.Expires
		}
	}
	c.minExpiry = min
}

// evictOldestLocked drops the entry closest to expiry. Caller holds c.mu.
func (c *Cache) evictOldestLocked() {
	var victim ID
	var when time.Time
	first := true
	for id, a := range c.byID {
		if first || a.Expires.Before(when) {
			victim, when, first = id, a.Expires, false
		}
	}
	if !first {
		c.kindLen[c.byID[victim].Kind]--
		delete(c.byID, victim)
		c.version++
	}
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
// exactly; empty name matches all. Results are sorted by Name then ID for
// determinism. A whole-kind result is the cache's own memo, shared by every
// caller until the directory next changes: it must only be read (slicing it
// is fine). It stays valid and unchanged for as long as the caller holds
// it — a change builds a new memo and never writes the old one.
func (c *Cache) Query(kind AdvKind, name string) []Advertisement {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	if name == "" {
		m := c.memo[kind]
		if m == nil || m.version != c.version {
			m = c.buildMemoLocked(kind)
		}
		return m.result
	}
	var out []Advertisement
	for _, a := range c.byID {
		if a.Kind == kind && a.Name == name {
			out = append(out, a)
		}
	}
	SortAdvertisements(out)
	return out
}

// buildMemoLocked scans and sorts the entries of kind under the directory
// version they were read at. Caller holds c.mu and has settled expiry.
func (c *Cache) buildMemoLocked(kind AdvKind) *kindMemo {
	m := &kindMemo{version: c.version}
	for _, a := range c.byID {
		if a.Kind == kind {
			m.result = append(m.result, a)
		}
	}
	SortAdvertisements(m.result)
	if c.memo == nil {
		c.memo = make(map[AdvKind]*kindMemo, 3)
	}
	c.memo[kind] = m
	return m
}

// SortAdvertisements orders advertisements by Name then ID — the canonical
// directory order. Every query returns it, and sharded directories restore
// it after merging per-shard results, so a multi-shard cache answers
// queries identically to a single one.
func SortAdvertisements(advs []Advertisement) {
	slices.SortFunc(advs, CompareAdvertisements)
}

// CompareAdvertisements is the canonical (Name, ID) directory order as a
// three-way comparison.
func CompareAdvertisements(a, b Advertisement) int {
	if c := strings.Compare(a.Name, b.Name); c != 0 {
		return c
	}
	return bytes.Compare(a.ID[:], b.ID[:])
}

// NextExpiry returns the earliest expiry instant among cached
// advertisements, and whether the cache holds any. Lease sweepers use it to
// schedule the next eager eviction instead of polling on a period.
func (c *Cache) NextExpiry() (time.Time, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var earliest time.Time
	found := false
	for _, a := range c.byID {
		if !found || a.Expires.Before(earliest) {
			earliest, found = a.Expires, true
		}
	}
	return earliest, found
}

// Sweep evicts every advertisement expired at now and reports how many were
// dropped: the settling every reader does first, on a timer, so a broker
// under churn does not hold dead leases while nobody reads or registers.
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
	c.kindLen = make(map[AdvKind]int, 3)
	c.minExpiry = time.Time{}
	c.version++
}

// Remove deletes an advertisement by ID.
func (c *Cache) Remove(id ID) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if a, ok := c.byID[id]; ok {
		c.kindLen[a.Kind]--
		delete(c.byID, id)
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
	return c.kindLen[kind]
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
