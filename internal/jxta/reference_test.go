package jxta

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"testing"
	"time"
)

// refCache is the reference the Cache must match: one map, a full scan and
// sort per query, and a mutation count kept by hand. It keeps no index, no
// expiry bound and no per-kind count.
type refCache struct {
	advs    map[ID]Advertisement
	limit   int
	version uint64
}

// settle drops every entry expired at now, one version each, and reports how
// many it dropped.
func (r *refCache) settle(now time.Time) int {
	n := 0
	for id, a := range r.advs {
		if !a.Expires.After(now) {
			delete(r.advs, id)
			r.version++
			n++
		}
	}
	return n
}

func (r *refCache) publish(a Advertisement, now time.Time) {
	if !a.Expires.After(now) {
		return
	}
	r.settle(now)
	if _, ok := r.advs[a.ID]; !ok && len(r.advs) >= r.limit {
		// The victim is the entry closest to expiry, the first in canonical
		// order among equals.
		all := slices.Collect(maps.Values(r.advs))
		slices.SortFunc(all, func(a, b Advertisement) int {
			if c := a.Expires.Compare(b.Expires); c != 0 {
				return c
			}
			return CompareAdvertisements(a, b)
		})
		delete(r.advs, all[0].ID)
		r.version++
	}
	r.advs[a.ID] = a
	r.version++
}

// query returns the entries of kind named name (every name when empty) in
// canonical order.
func (r *refCache) query(kind AdvKind, name string) []Advertisement {
	var out []Advertisement
	for _, a := range r.advs {
		if a.Kind == kind && (name == "" || a.Name == name) {
			out = append(out, a)
		}
	}
	slices.SortFunc(out, CompareAdvertisements)
	return out
}

// sameAdvs compares two directories entry for entry; nil and empty are the
// same directory.
func sameAdvs(got, want []Advertisement) bool {
	return slices.EqualFunc(got, want, func(a, b Advertisement) bool {
		return a.Kind == b.Kind && a.ID == b.ID && a.Name == b.Name && a.Addr == b.Addr &&
			a.Expires.Equal(b.Expires) && slices.Equal(a.Attrs, b.Attrs)
	})
}

// checkCacheProgram runs a seeded program against a Cache of the given limit
// and the reference side by side: publishes of new identifiers (evicting
// once the cache is full), renewals, republishes of a live identifier under
// another name or kind, clock advances (some onto an expiry instant, some
// followed by a Sweep), removals and clears. After every step it compares
// every read: Query of every kind, whole and for every name the program uses
// plus names it never publishes, LiveLen, Len, Lookup of every identifier,
// and Stamp, which must count mutations exactly as the reference does. Every whole-kind result taken at an earlier step must still hold what
// it held then.
func checkCacheProgram(seed int64, limit, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	clock, cur := clockAt(base)
	c := NewCache(limit, clock)
	ref := &refCache{advs: make(map[ID]Advertisement), limit: limit}
	ids := make([]ID, 16)
	for i := range ids {
		ids[i] = NewID("ref", strconv.Itoa(i))
	}
	// Names share prefixes, so a named run's bounds are exercised; the absent
	// ones sort before, between and after the published ones.
	names := []string{"a", "ab", "b", "ba", "c"}
	absent := []string{"0", "aa", "b0", "bb", "zz"}
	kinds := []AdvKind{AdvPeer, AdvPipe, AdvModule}
	type heldResult struct {
		got, want []Advertisement
		step      int
	}
	var held []heldResult
	publishes := 0
	draw := func(id ID, kind AdvKind, name string) Advertisement {
		publishes++
		// One of eight leases, one of them already over: publishes between
		// two clock advances often end at one instant, so evictions choose
		// among equals.
		ttl := time.Duration(rng.Intn(8)*10-5) * time.Second
		return Advertisement{Kind: kind, ID: id, Name: name, Addr: name + "/transfer", Expires: cur.Add(ttl),
			Attrs: []Attr{{"n", strconv.Itoa(publishes)}}}
	}
	live := func() []Advertisement {
		out := make([]Advertisement, 0, len(ref.advs))
		for _, a := range ref.advs {
			out = append(out, a)
		}
		slices.SortFunc(out, CompareAdvertisements)
		return out
	}

	for step := 1; step <= steps; step++ {
		var what string
		fail := func(format string, args ...any) error {
			return fmt.Errorf("seed %d, limit %d, step %d (%s): %s", seed, limit, step, what, fmt.Sprintf(format, args...))
		}
		now := *cur
		switch op := rng.Intn(20); {
		case op < 5: // publish an identifier the cache does not hold
			id := ids[rng.Intn(len(ids))]
			if _, ok := ref.advs[id]; ok {
				what = "nothing"
				break
			}
			a := draw(id, kinds[rng.Intn(len(kinds))], names[rng.Intn(len(names))])
			what = fmt.Sprintf("publish new %s %q until %v", a.Kind, a.Name, a.Expires.Sub(now))
			c.Publish(a)
			ref.publish(a, now)
		case op < 9: // renew a live entry: same kind and name, a new lease and payload
			all := live()
			if len(all) == 0 {
				what = "nothing"
				break
			}
			old := all[rng.Intn(len(all))]
			a := draw(old.ID, old.Kind, old.Name)
			what = fmt.Sprintf("renew %s %q until %v", a.Kind, a.Name, a.Expires.Sub(now))
			c.Publish(a)
			ref.publish(a, now)
		case op < 12: // republish a live identifier under another name or kind
			all := live()
			if len(all) == 0 {
				what = "nothing"
				break
			}
			old := all[rng.Intn(len(all))]
			kind, name := old.Kind, old.Name
			if rng.Intn(2) == 0 {
				kind = kinds[rng.Intn(len(kinds))]
			} else {
				name = names[rng.Intn(len(names))]
			}
			a := draw(old.ID, kind, name)
			what = fmt.Sprintf("move %s %q to %s %q until %v", old.Kind, old.Name, a.Kind, a.Name, a.Expires.Sub(now))
			c.Publish(a)
			ref.publish(a, now)
		case op < 15: // advance the clock, sometimes onto an expiry instant exactly
			d := time.Duration(1 + rng.Int63n(int64(20*time.Second)))
			if all := live(); len(all) > 0 && rng.Intn(2) == 0 {
				d = all[rng.Intn(len(all))].Expires.Sub(now)
			}
			what = fmt.Sprintf("advance %v", d)
			*cur = now.Add(d)
			if rng.Intn(2) == 0 {
				what += " and sweep"
				if got, want := c.Sweep(*cur), ref.settle(*cur); got != want {
					return fail("Sweep dropped %d, reference %d", got, want)
				}
			}
		case op < 18:
			id := ids[rng.Intn(len(ids))]
			what = "remove"
			c.Remove(id)
			if _, ok := ref.advs[id]; ok {
				delete(ref.advs, id)
				ref.version++
			}
		default:
			what = "clear"
			c.Clear()
			clear(ref.advs)
			ref.version++
		}
		now = *cur
		ref.settle(now)

		// The reads run in a different order after every step: each may be
		// the one that first notices an expiry.
		checks := []func() error{
			func() error {
				for _, kind := range kinds {
					want := ref.query(kind, "")
					got := c.Query(kind, "")
					if !sameAdvs(got, want) {
						return fail("Query(%s, \"\") = %d entries, reference %d, or they differ", kind, len(got), len(want))
					}
					held = append(held, heldResult{got, slices.Clone(want), step})
					if n := c.LiveLen(kind); n != len(want) {
						return fail("LiveLen(%s) = %d, reference %d", kind, n, len(want))
					}
				}
				return nil
			},
			func() error {
				for _, kind := range kinds {
					for _, name := range slices.Concat(names, absent) {
						if got, want := c.Query(kind, name), ref.query(kind, name); !sameAdvs(got, want) {
							return fail("Query(%s, %q) = %+v, reference %+v", kind, name, got, want)
						}
					}
				}
				return nil
			},
			func() error {
				for _, id := range ids {
					got, ok := c.Lookup(id)
					want, wantOK := ref.advs[id]
					if ok != wantOK || !sameAdvs([]Advertisement{got}, []Advertisement{want}) {
						return fail("Lookup(%s) = %+v, %v; reference %+v, %v", id, got, ok, want, wantOK)
					}
				}
				if got := c.Len(); got != len(ref.advs) {
					return fail("Len = %d, reference %d", got, len(ref.advs))
				}
				return nil
			},
			func() error {
				if got := c.Stamp(); got != ref.version {
					return fail("Stamp = %d, reference counts %d mutations", got, ref.version)
				}
				return nil
			},
		}
		for _, i := range rng.Perm(len(checks)) {
			if err := checks[i](); err != nil {
				return err
			}
		}
		for _, h := range held {
			if !sameAdvs(h.got, h.want) {
				return fail("a whole-kind result taken at step %d changed: %+v, was %+v", h.step, h.got, h.want)
			}
		}
		// Hold a bounded sample: one result of every step for the last 40.
		if len(held) > 120 {
			held = slices.Delete(held, 0, len(held)-120)
		}
	}
	return nil
}

// TestCacheMatchesReference is the oracle for the Cache: seeded programs at a
// limit the program fills (so publishes evict) and at one it never reaches,
// every read compared with the reference after every step.
func TestCacheMatchesReference(t *testing.T) {
	seeds := 24
	if testing.Short() {
		seeds = 6
	}
	for seed := 1; seed <= seeds; seed++ {
		for _, limit := range []int{6, 64} {
			if err := checkCacheProgram(int64(seed), limit, 400); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzCacheMatchesReference hands (seed, limit, steps) to the fuzzer.
func FuzzCacheMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(6), uint16(60))
	f.Add(int64(2), uint8(1), uint16(400))
	f.Add(int64(3), uint8(40), uint16(300))
	f.Fuzz(func(t *testing.T, seed int64, limit uint8, steps uint16) {
		if err := checkCacheProgram(seed, 1+int(limit)%64, int(steps)%600); err != nil {
			t.Fatal(err)
		}
	})
}
