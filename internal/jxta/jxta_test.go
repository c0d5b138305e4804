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

func TestIDIsZero(t *testing.T) {
	var z ID
	if !z.IsZero() {
		t.Fatal("zero ID not zero")
	}
	if NewID("a", "b").IsZero() {
		t.Fatal("derived ID is zero")
	}
}

func TestAdvKindString(t *testing.T) {
	if AdvPeer.String() != "peer" || AdvPipe.String() != "pipe" || AdvModule.String() != "module" {
		t.Fatal("kind names wrong")
	}
	if AdvKind(99).String() == "" {
		t.Fatal("unknown kind must render")
	}
}

func sampleAdv() Advertisement {
	return Advertisement{
		Kind:    AdvPeer,
		ID:      NewID("peer", "sc1"),
		Name:    "sc1",
		Addr:    "sc1/overlay",
		Expires: base.Add(time.Hour),
		Attrs:   []Attr{{AttrCPUScore, "1.5"}, {AttrCountry, "ES"}},
	}
}

func TestAdvertisementRoundtrip(t *testing.T) {
	a := sampleAdv()
	e := wire.NewEncoder(128)
	a.Encode(e)
	d := wire.NewDecoder(e.Bytes())
	got, err := DecodeAdvertisement(d)
	if err != nil {
		t.Fatal(err)
	}
	if got.Kind != a.Kind || got.ID != a.ID || got.Name != a.Name || got.Addr != a.Addr {
		t.Fatalf("roundtrip mismatch: %+v vs %+v", got, a)
	}
	if !got.Expires.Equal(a.Expires) {
		t.Fatalf("expiry %v != %v", got.Expires, a.Expires)
	}
	if got.Attr(AttrCPUScore) != "1.5" || got.Attr(AttrCountry) != "ES" {
		t.Fatalf("attrs lost: %+v", got.Attrs)
	}
}

func TestDecodeAdvertisementCorrupt(t *testing.T) {
	if _, err := DecodeAdvertisement(wire.NewDecoder([]byte{1, 2, 3})); err == nil {
		t.Fatal("corrupt input accepted")
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
	got, ok := c.Lookup(a.ID)
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
	if _, ok := c.Lookup(a.ID); ok {
		t.Fatal("expired advertisement still visible")
	}
	if c.Len() != 0 {
		t.Fatalf("Len = %d after expiry", c.Len())
	}
}

func TestCacheRejectsAlreadyExpired(t *testing.T) {
	clock, _ := clockAt(base)
	c := NewCache(10, clock)
	a := sampleAdv()
	a.Expires = base.Add(-time.Second)
	c.Publish(a)
	if c.Len() != 0 {
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
	pipeAdv := sampleAdv()
	pipeAdv.Kind = AdvPipe
	pipeAdv.ID = NewID("pipe", "sc1")
	c.Publish(pipeAdv)

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
	pipes := c.Query(AdvPipe, "")
	if len(pipes) != 1 {
		t.Fatalf("Query pipes = %d, want 1", len(pipes))
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
	got, _ := c.Lookup(a.ID)
	if got.Addr != "sc1/new" {
		t.Fatalf("refresh did not replace: %+v", got)
	}
	if c.Len() != 1 {
		t.Fatalf("Len = %d, want 1", c.Len())
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
	if _, ok := c.Lookup(NewID("peer", "shortlived")); ok {
		t.Fatal("expected shortlived to be evicted")
	}
	if _, ok := c.Lookup(NewID("peer", "longlived")); !ok {
		t.Fatal("longlived evicted wrongly")
	}
	if _, ok := c.Lookup(NewID("peer", "new")); !ok {
		t.Fatal("new entry missing")
	}
}

func TestCacheRemove(t *testing.T) {
	clock, _ := clockAt(base)
	c := NewCache(10, clock)
	a := sampleAdv()
	c.Publish(a)
	c.Remove(a.ID)
	if _, ok := c.Lookup(a.ID); ok {
		t.Fatal("removed advertisement still visible")
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
				c.Lookup(a.ID)
			}
		}()
	}
	wg.Wait()
	if c.Len() != 8 {
		t.Fatalf("Len = %d, want 8", c.Len())
	}
}

// TestQueryAllocBudget pins what the directory's reads and renewals cost: a
// whole-kind Query of an unchanged directory hands the directory itself out,
// a named Query allocates its result alone, and a renewal allocates nothing
// unless a whole-kind result was handed out since the last change — then it
// copies the directory, once.
func TestQueryAllocBudget(t *testing.T) {
	c, advs := filledCache(1024)
	c.Query(AdvPeer, "")
	if n := testing.AllocsPerRun(100, func() { c.Query(AdvPeer, "") }); n != 0 {
		t.Errorf("whole-kind Query of an unchanged directory: %v allocations, want 0", n)
	}
	if n := testing.AllocsPerRun(100, func() { c.Query(AdvPeer, advs[517].Name) }); n != 1 {
		t.Errorf("named Query: %v allocations, want 1", n)
	}
	renew := advs[517]
	c.Publish(renew) // copies the directory handed out above
	if n := testing.AllocsPerRun(100, func() {
		renew.Expires = renew.Expires.Add(time.Second)
		c.Publish(renew)
	}); n != 0 {
		t.Errorf("renewal with no result handed out since the last change: %v allocations, want 0", n)
	}
}

func TestPropertyAdvertisementRoundtrip(t *testing.T) {
	f := func(name, addr, k1, v1 string, hours uint8) bool {
		a := Advertisement{
			Kind:    AdvPipe,
			ID:      NewID("pipe", name),
			Name:    name,
			Addr:    addr,
			Expires: base.Add(time.Duration(hours) * time.Hour),
			Attrs:   []Attr{{k1, v1}},
		}
		e := wire.NewEncoder(64)
		a.Encode(e)
		got, err := DecodeAdvertisement(wire.NewDecoder(e.Bytes()))
		if err != nil {
			return false
		}
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
	if _, ok := c.Lookup(short.ID); ok {
		t.Fatal("swept lease still resolvable")
	}
	if _, ok := c.Lookup(long.ID); !ok {
		t.Fatal("live lease was swept")
	}
}

func TestExpiredLeaseNeverServed(t *testing.T) {
	// Lazy expiry alone (no Sweep calls) must already keep every read
	// path dead-lease free: lookups, queries and Len filter on the clock.
	now, cur := clockAt(base)
	c := NewCache(0, now)
	a := sampleAdv()
	a.Expires = base.Add(time.Minute)
	c.Publish(a)
	*cur = base.Add(2 * time.Minute)
	if _, ok := c.Lookup(a.ID); ok {
		t.Fatal("Lookup served an expired lease")
	}
	if got := c.Query(a.Kind, ""); len(got) != 0 {
		t.Fatalf("Query served %d expired leases", len(got))
	}
	if c.Len() != 0 {
		t.Fatal("Len counted an expired lease")
	}
}
