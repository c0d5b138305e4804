package jxta

import (
	"bytes"
	"crypto/sha256"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"

	"peerlab/internal/wire"
)

var base = time.Date(2007, 3, 1, 0, 0, 0, 0, time.UTC)

func clockAt(t time.Time) (func() time.Time, *time.Time) {
	cur := t
	return func() time.Time { return cur }, &cur
}

func TestNewIDStableAndDistinct(t *testing.T) {
	a1 := NewID("peer", "sc1")
	a2 := NewID("peer", "sc1")
	b := NewID("peer", "sc2")
	c := NewID("pipe", "sc1")
	if a1 != a2 {
		t.Fatal("same inputs produced different IDs")
	}
	if a1 == b || a1 == c {
		t.Fatal("different inputs collided")
	}
	// The ID is the first half of SHA-256 over namespace, a zero byte and
	// name, for names that fit the stack buffer and for names that do not.
	for _, name := range []string{"sc1", strings.Repeat("n00001.uniform.slice.peerlab", 8)} {
		sum := sha256.Sum256([]byte("peer\x00" + name))
		if id := NewID("peer", name); !bytes.Equal(id[:], sum[:16]) {
			t.Fatalf("NewID(peer, %q) = %x, want %x", name, id, sum[:16])
		}
	}
}

func TestIDString(t *testing.T) {
	s := NewID("peer", "x").String()
	if !strings.HasPrefix(s, "urn:jxta:uuid-") || len(s) != len("urn:jxta:uuid-")+32 {
		t.Fatalf("ID string = %q", s)
	}
}

func sampleAdv() Advertisement {
	return Advertisement{
		Kind:    AdvPeer,
		ID:      NewID("peer", "sc1"),
		Name:    "sc1",
		Addr:    "sc1/overlay",
		Expires: base.Add(time.Hour),
		Attrs:   []Attr{{AttrCPUScore, "1.5"}, {"country", "ES"}},
	}
}

func TestAdvertisementRoundtrip(t *testing.T) {
	a := sampleAdv()
	e := wire.NewEncoder(128)
	a.Encode(e)
	advs, err := bulkDecode(wire.NewDecoder(e.Bytes()), 1)
	if err != nil {
		t.Fatal(err)
	}
	got := advs[0]
	if got.Kind != a.Kind || got.ID != a.ID || got.Name != a.Name || got.Addr != a.Addr {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, a)
	}
	if !got.Expires.Equal(a.Expires) {
		t.Fatalf("expiry %v != %v", got.Expires, a.Expires)
	}
	if got.Attr(AttrCPUScore) != "1.5" || got.Attr("country") != "ES" {
		t.Fatalf("attrs lost: %+v", got.Attrs)
	}
}

func TestAttrHelpers(t *testing.T) {
	a := sampleAdv()
	if a.Attr("nope") != "" {
		t.Fatal("missing attr must be empty")
	}
	b := a.WithAttr(AttrCPUScore, "2.0").WithAttr("new", "v")
	if b.Attr(AttrCPUScore) != "2.0" || b.Attr("new") != "v" {
		t.Fatalf("WithAttr failed: %+v", b.Attrs)
	}
	if a.Attr(AttrCPUScore) != "1.5" {
		t.Fatal("WithAttr mutated the original")
	}
}

func TestCachePublishLookup(t *testing.T) {
	clock, _ := clockAt(base)
	c := NewCache(10, clock)
	a := sampleAdv()
	c.Publish(a)
	got, ok := c.Lookup(a.Name)
	if !ok || got.Name != "sc1" {
		t.Fatalf("Lookup = (%+v, %v)", got, ok)
	}
}

func TestCacheExpiry(t *testing.T) {
	clock, cur := clockAt(base)
	c := NewCache(10, clock)
	a := sampleAdv()
	c.Publish(a)
	*cur = base.Add(2 * time.Hour)
	if _, ok := c.Lookup(a.Name); ok {
		t.Fatal("expired advertisement still visible")
	}
	if n := c.LiveLen(); n != 0 {
		t.Fatalf("LiveLen = %d after expiry", n)
	}
}

func TestCacheRejectsAlreadyExpired(t *testing.T) {
	clock, _ := clockAt(base)
	c := NewCache(10, clock)
	a := sampleAdv()
	a.Expires = base.Add(-time.Second)
	c.Publish(a)
	if c.LiveLen() != 0 {
		t.Fatal("expired advertisement stored")
	}
}

func TestCacheQueryByKindAndName(t *testing.T) {
	clock, _ := clockAt(base)
	c := NewCache(10, clock)
	for _, name := range []string{"sc2", "sc1", "sc3"} {
		a := sampleAdv()
		a.Name = name
		a.ID = NewID("peer", name)
		c.Publish(a)
	}
	// The cache keeps peers only: another kind is not stored, and a query
	// for one answers empty.
	other := sampleAdv()
	other.Kind, other.Name = AdvPeer+1, "sc0"
	c.Publish(other)
	if got := c.Query(other.Kind, ""); len(got) != 0 {
		t.Fatalf("Query of another kind = %+v, want none", got)
	}
	all := c.Query(AdvPeer, "")
	if len(all) != 3 {
		t.Fatalf("Query all peers = %d, want 3", len(all))
	}
	if all[0].Name != "sc1" || all[1].Name != "sc2" || all[2].Name != "sc3" {
		t.Fatalf("Query not sorted: %v", []string{all[0].Name, all[1].Name, all[2].Name})
	}
	one := c.Query(AdvPeer, "sc2")
	if len(one) != 1 || one[0].Name != "sc2" {
		t.Fatalf("Query by name = %+v", one)
	}
}

func TestCacheRefreshReplacesEntry(t *testing.T) {
	clock, _ := clockAt(base)
	c := NewCache(10, clock)
	a := sampleAdv()
	c.Publish(a)
	a.Addr = "sc1/new"
	a.Expires = base.Add(2 * time.Hour)
	c.Publish(a)
	got, _ := c.Lookup(a.Name)
	if got.Addr != "sc1/new" {
		t.Fatalf("refresh did not replace: %+v", got)
	}
	if n := c.LiveLen(); n != 1 {
		t.Fatalf("LiveLen = %d, want 1", n)
	}
}

func TestCacheEvictsClosestToExpiryWhenFull(t *testing.T) {
	clock, _ := clockAt(base)
	c := NewCache(2, clock)
	mk := func(name string, ttl time.Duration) Advertisement {
		a := sampleAdv()
		a.Name = name
		a.ID = NewID("peer", name)
		a.Expires = base.Add(ttl)
		return a
	}
	c.Publish(mk("shortlived", time.Minute))
	c.Publish(mk("longlived", time.Hour))
	c.Publish(mk("new", 30*time.Minute)) // evicts shortlived
	if _, ok := c.Lookup("shortlived"); ok {
		t.Fatal("expected shortlived to be evicted")
	}
	if _, ok := c.Lookup("longlived"); !ok {
		t.Fatal("longlived evicted wrongly")
	}
	if _, ok := c.Lookup("new"); !ok {
		t.Fatal("new entry missing")
	}
}

func TestCacheConcurrentAccess(t *testing.T) {
	clock, _ := clockAt(base)
	c := NewCache(256, clock)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 100; j++ {
				a := sampleAdv()
				a.Name = string(rune('a' + i))
				a.ID = NewID("peer", a.Name)
				c.Publish(a)
				c.Query(AdvPeer, "")
				c.Lookup(a.Name)
			}
		}()
	}
	wg.Wait()
	if n := c.LiveLen(); n != 8 {
		t.Fatalf("LiveLen = %d, want 8", n)
	}
}

// TestQueryAllocBudget pins what the directory's reads and renewals cost: a
// whole AppendAll into a buffer the caller keeps allocates nothing, a named
// Query its result alone, and a renewal nothing, whatever was read before it.
func TestQueryAllocBudget(t *testing.T) {
	c, advs := filledCache(1024)
	buf := c.AppendAll(nil)
	if n := testing.AllocsPerRun(100, func() { buf = c.AppendAll(buf[:0]) }); n != 0 {
		t.Errorf("AppendAll into a warm buffer: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Query(AdvPeer, advs[517].Name) }); n != 1 {
		t.Errorf("named Query: %v allocations, want 1", n)
	}
	renew := advs[517]
	if n := testing.AllocsPerRun(100, func() {
		renew.Expires = renew.Expires.Add(time.Second)
		c.Publish(renew)
		buf = c.AppendAll(buf[:0])
	}); n != 0 {
		t.Errorf("renewal then AppendAll: %v allocations, want 0", n)
	}
}

// TestRenewalIsNotAChange: Stamp holds across a renewal — the stored entry's
// ID, address and attributes under a lease that ends no earlier, which is
// stored all the same — and moves on every other change: a changed
// attribute, a changed address, a shortened lease, an insert, an expiry, an
// eviction and a Clear.
func TestRenewalIsNotAChange(t *testing.T) {
	clock, cur := clockAt(base)
	c := NewCache(2, clock)
	a := sampleAdv()
	a.Expires = base.Add(time.Minute)
	c.Publish(a)
	stamp := c.Stamp()
	step := func(what string, change bool, do func()) {
		t.Helper()
		do()
		if s := c.Stamp(); (s != stamp) != change {
			t.Fatalf("%s: stamp %d after %d, want a change: %v", what, s, stamp, change)
		}
		stamp = c.Stamp()
	}
	publish := func(a Advertisement) func() { return func() { c.Publish(a) } }
	named := func(name string, lease time.Duration) Advertisement {
		b := sampleAdv()
		b.ID, b.Name, b.Expires = NewID("peer", name), name, base.Add(lease)
		return b
	}

	a.Expires = base.Add(2 * time.Minute)
	step("a renewal", false, publish(a))
	step("a renewal to the same instant", false, publish(a))
	if got, _ := c.Lookup(a.Name); !got.Expires.Equal(a.Expires) {
		t.Fatalf("a renewal stored the lease %v, want %v", got.Expires, a.Expires)
	}
	a = a.WithAttr(AttrCPUScore, "2")
	step("a changed attribute", true, publish(a))
	a.Addr = "sc1/elsewhere"
	step("a changed address", true, publish(a))
	a.Expires = base.Add(90 * time.Second)
	step("a shortened lease", true, publish(a))
	step("an insert", true, publish(named("sc2", 30*time.Second)))
	step("an expiry", true, func() { *cur = base.Add(30 * time.Second) })
	step("an insert", true, publish(named("sc3", time.Minute)))
	step("an eviction", true, publish(named("sc4", time.Hour)))
	if _, ok := c.Lookup("sc3"); ok {
		t.Fatal("the full cache kept sc3, the entry closest to expiry")
	}
	step("a Clear", true, c.Clear)
}

func TestPropertyAdvertisementRoundtrip(t *testing.T) {
	f := func(name, addr, k1, v1 string, hours uint8) bool {
		a := Advertisement{
			Kind:    AdvPeer,
			ID:      NewID("peer", name),
			Name:    name,
			Addr:    addr,
			Expires: base.Add(time.Duration(hours) * time.Hour),
			Attrs:   []Attr{{k1, v1}},
		}
		e := wire.NewEncoder(64)
		a.Encode(e)
		advs, err := bulkDecode(wire.NewDecoder(e.Bytes()), 1)
		if err != nil {
			return false
		}
		got := advs[0]
		return got.Name == name && got.Addr == addr && got.Attr(k1) == v1 &&
			got.Expires.Equal(a.Expires)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSweepEvictsExpiredOnly(t *testing.T) {
	now, cur := clockAt(base)
	c := NewCache(0, now)
	short := sampleAdv()
	short.ID = NewID("peer", "short")
	short.Name = "short"
	short.Expires = base.Add(time.Minute)
	long := sampleAdv()
	long.ID = NewID("peer", "long")
	long.Name = "long"
	long.Expires = base.Add(time.Hour)
	c.Publish(short)
	c.Publish(long)

	if n := c.Sweep(*cur); n != 0 {
		t.Fatalf("premature sweep evicted %d", n)
	}
	*cur = base.Add(time.Minute) // lease boundary: expired exactly now
	if n := c.Sweep(*cur); n != 1 {
		t.Fatalf("sweep evicted %d, want 1", n)
	}
	if _, ok := c.Lookup(short.Name); ok {
		t.Fatal("swept lease still resolvable")
	}
	if _, ok := c.Lookup(long.Name); !ok {
		t.Fatal("live lease was swept")
	}
}

func TestExpiredLeaseNeverServed(t *testing.T) {
	// Lazy expiry alone (no Sweep calls) must already keep every read
	// path dead-lease free: lookups, queries and LiveLen filter on the clock.
	now, cur := clockAt(base)
	c := NewCache(0, now)
	a := sampleAdv()
	a.Expires = base.Add(time.Minute)
	c.Publish(a)
	*cur = base.Add(2 * time.Minute)
	if _, ok := c.Lookup(a.Name); ok {
		t.Fatal("Lookup served an expired lease")
	}
	if got := c.Query(a.Kind, ""); len(got) != 0 {
		t.Fatalf("Query served %d expired leases", len(got))
	}
	if c.LiveLen() != 0 {
		t.Fatal("LiveLen counted an expired lease")
	}
}
