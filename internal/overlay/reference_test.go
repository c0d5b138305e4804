package overlay

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/simnet"
)

// refDirectory is the reference lease directory the broker's sharded,
// indexed one must match: one map, and a full scan and sort per query. It
// keeps no index, no expiry bound, no merge and no shards, and it
// never removes an entry because time passed — whether an entry is live is
// decided against the clock each time it is read.
type refDirectory struct {
	advs map[jxta.ID]jxta.Advertisement
}

func (r *refDirectory) publish(a jxta.Advertisement, now time.Time) {
	if a.Expires.After(now) {
		r.advs[a.ID] = a
	}
}

func (r *refDirectory) lookup(id jxta.ID, now time.Time) (jxta.Advertisement, bool) {
	a, ok := r.advs[id]
	if !ok || !a.Expires.After(now) {
		return jxta.Advertisement{}, false
	}
	return a, true
}

// canonical is jxta.CompareAdvertisements on values, for slices.SortFunc.
func canonical(a, b jxta.Advertisement) int { return jxta.CompareAdvertisements(&a, &b) }

// query returns the entries live at now that keep accepts, in canonical order.
func (r *refDirectory) query(now time.Time, keep func(jxta.Advertisement) bool) []jxta.Advertisement {
	var out []jxta.Advertisement
	for _, a := range r.advs {
		if a.Expires.After(now) && keep(a) {
			out = append(out, a)
		}
	}
	slices.SortFunc(out, canonical)
	return out
}

// sameAdvs compares two directories entry for entry; nil and empty are the
// same directory, and instants compare as instants (a decoded reply carries
// them through the wire).
func sameAdvs(got, want []jxta.Advertisement) bool {
	return slices.EqualFunc(got, want, func(a, b jxta.Advertisement) bool {
		return a.Kind == b.Kind && a.ID == b.ID && a.Name == b.Name && a.Addr == b.Addr &&
			a.Expires.Equal(b.Expires) && slices.Equal(a.Attrs, b.Attrs)
	})
}

// leaseProgramTTL is the lease the program's broker grants on its own publish
// path; direct cache publishes draw shorter and longer ones around it.
const leaseProgramTTL = 40 * time.Second

// checkLeaseProgram runs a seeded program of publishes, renewals, clock
// advances, sweeps, restarts and removals against a broker of the given
// shard count and the reference directory side by side, and after every step
// compares every read the serve path has: Cache.Lookup of every identifier
// the program knows, the named and whole-kind Cache.Query and LiveLen of
// every shard, Broker.Advertisements, and the discover reply decoded the way
// a client decodes it. Per shard it also holds Cache.Stamp to its contract:
// a stamp seen before means the live set — entries and payloads — seen with
// it, so a live set that changed must have changed the stamp. The reads run
// in a different order after every step, because each of them may be the one
// that first notices an expiry.
func checkLeaseProgram(seed int64, shards, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(seed)
	host := net.MustAddNode("broker0", simnet.DefaultProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: shards, CacheLimit: 4096, AdvTTL: leaseProgramTTL})
	if err != nil {
		return err
	}
	// The identifiers the program draws from: ten names, each as a peer, as a
	// pipe and as a second peer entry of the same name (a named query then
	// orders by ID).
	type ident struct {
		kind      jxta.AdvKind
		id        jxta.ID
		name      string
		publishes int
	}
	var idents []*ident
	var names []string
	for i := 0; i < 10; i++ {
		name := "n" + strconv.Itoa(i)
		names = append(names, name)
		idents = append(idents,
			&ident{kind: jxta.AdvPeer, id: jxta.NewID("peer", name), name: name},
			&ident{kind: jxta.AdvPipe, id: jxta.NewID("pipe", name), name: name},
			&ident{kind: jxta.AdvPeer, id: jxta.NewID("peer-again", name), name: name})
	}
	kinds := []jxta.AdvKind{jxta.AdvPeer, jxta.AdvPipe, jxta.AdvModule}
	ref := &refDirectory{advs: make(map[jxta.ID]jxta.Advertisement)}
	shardIndex := func(name string) int { return slices.Index(b.shards, b.shardOf(name)) }
	// seen[i] maps every stamp shard i has returned to the live set it held.
	seen := make([]map[uint64][]jxta.Advertisement, shards)
	for i := range seen {
		seen[i] = make(map[uint64][]jxta.Advertisement)
	}

	var step int
	var what string
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d, %d shards, step %d (%s): %s", seed, shards, step, what, fmt.Sprintf(format, args...))
	}
	checks := []func(now time.Time) error{
		func(now time.Time) error { // Cache.Lookup
			for _, it := range idents {
				got, ok := b.shardOf(it.name).cache.Lookup(it.id)
				want, wantOK := ref.lookup(it.id, now)
				if ok != wantOK || !sameAdvs([]jxta.Advertisement{got}, []jxta.Advertisement{want}) {
					return fail("Lookup(%s %s) = %+v, %v; reference %+v, %v", it.kind, it.name, got, ok, want, wantOK)
				}
			}
			return nil
		},
		func(now time.Time) error { // per-shard whole-kind Query, LiveLen
			for i, sh := range b.shards {
				for _, kind := range kinds {
					want := ref.query(now, func(a jxta.Advertisement) bool { return a.Kind == kind && shardIndex(a.Name) == i })
					if got := sh.cache.Query(kind, ""); !sameAdvs(got, want) {
						return fail("shard %d Query(%s) = %d entries, reference %d, or they differ", i, kind, len(got), len(want))
					}
					if got := sh.cache.LiveLen(kind); got != len(want) {
						return fail("shard %d LiveLen(%s) = %d, reference %d", i, kind, got, len(want))
					}
				}
			}
			return nil
		},
		func(now time.Time) error { // named Cache.Query on the owning shard
			for _, kind := range kinds {
				for _, name := range names {
					want := ref.query(now, func(a jxta.Advertisement) bool { return a.Kind == kind && a.Name == name })
					if got := b.shardOf(name).cache.Query(kind, name); !sameAdvs(got, want) {
						return fail("Query(%s, %s) = %+v, reference %+v", kind, name, got, want)
					}
				}
			}
			return nil
		},
		func(now time.Time) error { // Cache.Stamp
			for i, sh := range b.shards {
				stamp := sh.cache.Stamp()
				live := ref.query(now, func(a jxta.Advertisement) bool { return shardIndex(a.Name) == i })
				if was, ok := seen[i][stamp]; ok && !sameAdvs(was, live) {
					return fail("shard %d returned stamp %d for two different live sets (%d entries, then %d)", i, stamp, len(was), len(live))
				}
				seen[i][stamp] = live
			}
			return nil
		},
		func(now time.Time) error { // Broker.Advertisements and the discover reply
			for _, kind := range kinds {
				want := ref.query(now, func(a jxta.Advertisement) bool { return a.Kind == kind })
				if got := b.Advertisements(kind); !sameAdvs(got, want) {
					return fail("Advertisements(%s) = %d entries, reference %d, or they differ", kind, len(got), len(want))
				}
				tag, dec, err := kindOf(b.directoryReply(kind))
				if err != nil || tag != mtDiscoverResult {
					return fail("discover reply for %s: tag %d, %v", kind, tag, err)
				}
				dir, err := scanDiscoverResult(dec)
				if got := dir.Decode(); err != nil || !sameAdvs(got, want) {
					return fail("discover reply for %s = %d entries, %v; reference %d, or they differ", kind, len(got), err, len(want))
				}
			}
			return nil
		},
	}

	var failure error
	net.Run(func() {
		defer b.Close()
		for step = 1; step <= steps && failure == nil; step++ {
			now := host.Now()
			it := idents[rng.Intn(len(idents))]
			switch op := rng.Intn(16); {
			case op < 4: // publish or renew through the broker, under its own lease
				what = "broker publish " + it.name
				it.publishes++
				a := jxta.Advertisement{Kind: it.kind, ID: it.id, Name: it.name, Addr: it.name + "/transfer"}
				if rng.Intn(2) == 0 {
					a = a.WithAttr(jxta.AttrCPUScore, strconv.Itoa(it.publishes))
				}
				b.publish(b.shardOf(it.name), a)
				a.Expires = now.Add(leaseProgramTTL)
				ref.publish(a, now)
			case op < 8: // publish or renew straight into the owning cache, any lease
				// A lease of zero or less is already over and must be ignored.
				ttl := time.Duration(rng.Intn(90)-5) * time.Second
				what = fmt.Sprintf("cache publish %s for %v", it.name, ttl)
				it.publishes++
				a := jxta.Advertisement{Kind: it.kind, ID: it.id, Name: it.name, Expires: now.Add(ttl),
					Attrs: []jxta.Attr{{Key: "n", Value: strconv.Itoa(it.publishes)}}}
				b.shardOf(it.name).cache.Publish(a)
				ref.publish(a, now)
			case op < 11: // advance the clock by an arbitrary amount
				d := time.Duration(1 + rng.Int63n(int64(30*time.Second)))
				what = fmt.Sprintf("sleep %v", d)
				host.Sleep(d)
			case op < 14: // advance the clock onto an expiry instant exactly
				a, ok := ref.lookup(it.id, now)
				if !ok {
					what = "nothing"
					break
				}
				what = fmt.Sprintf("sleep onto the expiry of %s %s", it.kind, it.name)
				host.Sleep(a.Expires.Sub(now))
			case op < 15:
				what = "sweep"
				for _, sh := range b.shards {
					sh.cache.Sweep(now)
				}
			default:
				what = "restart"
				b.Restart()
				clear(ref.advs)
			}
			now = host.Now()
			for _, i := range rng.Perm(len(checks)) {
				if failure = checks[i](now); failure != nil {
					return
				}
			}
		}
	})
	return failure
}

// TestLeaseDirectoryMatchesReference is the oracle for the broker's directory
// reads: seeded programs at one and three shards, every read compared with
// the reference directory after every step.
func TestLeaseDirectoryMatchesReference(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 1; seed <= seeds; seed++ {
		for _, shards := range []int{1, 3} {
			if err := checkLeaseProgram(int64(seed), shards, 300); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzLeaseDirectoryMatchesReference hands (seed, shards, steps) to the
// fuzzer.
func FuzzLeaseDirectoryMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(40))
	f.Add(int64(2), uint8(3), uint16(400))
	f.Add(int64(3), uint8(4), uint16(150))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, steps uint16) {
		if err := checkLeaseProgram(seed, 1+int(shards)%4, int(steps)%500); err != nil {
			t.Fatal(err)
		}
	})
}
