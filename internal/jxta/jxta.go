// Package jxta provides the JXTA-flavored naming and discovery substrate the
// overlay is built on: peer IDs, peer advertisements, and a TTL'd
// advertisement cache. The paper's platform (JXTA-Overlay) relies on JXTA for
// peer discovery; brokers act as rendezvous points that hold and answer
// advertisement queries.
//
// Wire compatibility with real JXTA (XML documents) is out of scope; the
// semantics — named peers publishing expiring, queryable advertisements —
// are what the overlay needs.
package jxta

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"slices"
	"sort"
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

// AdvKind is the advertisement type byte each encoded advertisement carries.
type AdvKind byte

// AdvPeer is the one kind the directory keeps: a peer advertisement.
const AdvPeer AdvKind = 1

// Advertisement is a published, expiring description of a peer, JXTA's
// PeerAdvertisement flattened into one record.
type Advertisement struct {
	Kind    AdvKind
	ID      ID
	Name    string // the peer's name, which identifies it in the directory
	Addr    string // transport address ("node/service")
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

// WithAttr returns a copy with each key, value pair of kv set, replacing an
// existing key or appending it, in one copy of the attributes.
func (a Advertisement) WithAttr(kv ...string) Advertisement {
	a.Attrs = append(make([]Attr, 0, len(a.Attrs)+len(kv)/2), a.Attrs...)
	for i := 0; i < len(kv); i += 2 {
		if j := slices.IndexFunc(a.Attrs, func(at Attr) bool { return at.Key == kv[i] }); j >= 0 {
			a.Attrs[j].Value = kv[i+1]
		} else {
			a.Attrs = append(a.Attrs, Attr{kv[i], kv[i+1]})
		}
	}
	return a
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

// Directory is n encoded advertisements that ScanAdvertisements has
// validated and nothing has decoded yet: what a receiver that may never read
// its directory keeps of a reply it owns. It aliases the decoder's buffer.
// Scan then Decode is the one way an advertisement is decoded, one or many.
type Directory struct {
	d        wire.Decoder // at the first advertisement
	n, attrs uint64
}

// ScanAdvertisements consumes n advertisements, checking every field —
// lengths, the ID's size, the attribute count against what remains — and
// allocating nothing, so a hostile count costs nothing, and returns them for
// Decode.
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

// Cache is a thread-safe store of peer advertisements with TTL expiry and
// bounded size (oldest-expiry eviction), as kept by rendezvous peers. A name
// identifies its entry: publishing a name replaces what the cache holds
// under it.
//
// It has one expiry rule: every method that reads or adds entries first
// settles expiry as of the clock (gcLocked), and after that stored means
// live. Nothing else compares an expiry with the clock.
type Cache struct {
	mu    sync.Mutex
	now   func() time.Time
	limit int
	// advs holds the entries in name order, which every change keeps by
	// binary search: no query sorts.
	advs []Advertisement
	// minExpiry is a lower bound on the earliest expiry among entries (zero
	// = unknown, forcing the next gc to scan). While now < minExpiry no
	// entry can be expired, so gcLocked skips its scan — the O(1) fast path
	// every call on a static deployment takes. Renewals leave the bound
	// stale-but-valid: the scan it eventually triggers removes nothing and
	// recomputes it.
	minExpiry time.Time
	// version counts the changes Stamp reports: all but renewals.
	version uint64
}

// NewCache returns a cache holding at most limit advertisements, which must
// be positive; now supplies time.
func NewCache(limit int, now func() time.Time) *Cache {
	return &Cache{now: now, limit: limit}
}

// searchLocked returns where name is or would be. Caller holds c.mu.
func (c *Cache) searchLocked(name string) (int, bool) {
	i := sort.Search(len(c.advs), func(k int) bool { return c.advs[k].Name >= name })
	return i, i < len(c.advs) && c.advs[i].Name == name
}

// Publish inserts or refreshes a peer advertisement; any other kind, and an
// already-expired advertisement, is ignored. A renewal (the stored ID, address
// and attributes, a lease no shorter) writes its slot and no version.
func (c *Cache) Publish(a Advertisement) {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := c.now()
	if a.Kind != AdvPeer || !a.Expires.After(now) {
		return
	}
	c.gcLocked(now)
	i, exists := c.searchLocked(a.Name)
	if exists && a.ID == c.advs[i].ID && a.Addr == c.advs[i].Addr &&
		slices.Equal(a.Attrs, c.advs[i].Attrs) && !a.Expires.Before(c.advs[i].Expires) {
		c.advs[i] = a // minExpiry, a bound below the old lease, is one below this
		return
	}
	if !exists && len(c.advs) >= c.limit {
		j := c.oldestLocked()
		c.advs = slices.Delete(c.advs, j, j+1)
		c.version++
		if j < i {
			i--
		}
	}
	if exists {
		c.advs[i] = a
	} else {
		c.advs = slices.Insert(c.advs, i, a)
	}
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
	n := len(c.advs)
	for _, a := range c.advs {
		if expired(a) {
			n--
		} else if min.IsZero() || a.Expires.Before(min) {
			min = a.Expires
		}
	}
	if n < len(c.advs) { // one pass compacts the list
		c.version += uint64(len(c.advs) - n)
		c.advs = slices.DeleteFunc(c.advs, expired)
	}
	c.minExpiry = min
}

// oldestLocked returns the index of the entry closest to expiry, the first by
// name among equals: the one a full cache evicts. The cache is not empty.
func (c *Cache) oldestLocked() int {
	oldest := 0
	for i := range c.advs {
		if c.advs[i].Expires.Before(c.advs[oldest].Expires) {
			oldest = i
		}
	}
	return oldest
}

// Lookup returns the advertisement published under name, if live.
func (c *Cache) Lookup(name string) (Advertisement, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	if i, ok := c.searchLocked(name); ok {
		return c.advs[i], true
	}
	return Advertisement{}, false
}

// AppendAll appends the live advertisements to dst in name order and returns
// the extended slice: into a buffer the caller keeps, a read of the whole
// directory allocates nothing.
func (c *Cache) AppendAll(dst []Advertisement) []Advertisement {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	return append(dst, c.advs...)
}

// Query returns a new slice of the live advertisements of the kind named
// name, in name order; empty name matches all, and a kind other than AdvPeer
// matches none.
func (c *Cache) Query(kind AdvKind, name string) []Advertisement {
	if kind != AdvPeer {
		return nil
	}
	if name == "" {
		return c.AppendAll(nil)
	}
	if a, ok := c.Lookup(name); ok {
		return []Advertisement{a}
	}
	return nil
}

// Sweep settles now: it evicts every advertisement expired at now, as every
// reader does first, and reports how many were dropped. Nothing in the
// overlay calls it; it is kept for the cache's benchmark probe.
func (c *Cache) Sweep(now time.Time) int {
	c.mu.Lock()
	defer c.mu.Unlock()
	before := len(c.advs)
	c.gcLocked(now)
	return before - len(c.advs)
}

// Clear drops every advertisement — a rendezvous peer restarting with a
// cold cache. Registered peers must re-publish (or be resurrected from
// their next stats report) before the directory answers for them again.
func (c *Cache) Clear() {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.advs = nil
	c.minExpiry = time.Time{}
	c.version++
}

// Stamp returns the version as of now: equal stamps mean the same live set,
// entries and payloads, but for leases that only moved later (DESIGN.md
// "Leases & churn"). O(1) on the static fast path.
func (c *Cache) Stamp() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gcLocked(c.now())
	return c.version
}

// Standard attribute keys used by the overlay.
const (
	AttrCPUScore = "cpu-score"
	// AttrPieces and AttrUnchoked carry a disseminating peer's piece
	// inventory (comma-joined indices) and currently unchoked hostnames
	// (comma-joined); published by the broker's piece-report handler.
	AttrPieces   = "pieces"
	AttrUnchoked = "unchoked"
)
