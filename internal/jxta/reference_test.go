package jxta

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"
)

// refCache is the reference the Cache must match: one map by name, a full
// scan and sort per query, and a count of changes kept by hand. It keeps no
// index and no expiry bound.
type refCache struct {
	advs    map[string]Advertisement
	limit   int
	version uint64
}

// settle drops every entry expired at now, one version each, and reports how
// many it dropped.
func (r *refCache) settle(now time.Time) int {
	n := 0
	for name, a := range r.advs {
		if !a.Expires.After(now) {
			delete(r.advs, name)
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
	old, ok := r.advs[a.Name]
	if !ok && len(r.advs) >= r.limit {
		// The victim is the entry closest to expiry, the first by name among
		// equals.
		all := slices.Collect(maps.Values(r.advs))
		slices.SortFunc(all, func(a, b Advertisement) int {
			if c := a.Expires.Compare(b.Expires); c != 0 {
				return c
			}
			return byName(a, b)
		})
		delete(r.advs, all[0].Name)
		r.version++
	}
	r.advs[a.Name] = a
	// A renewal — the same ID, address and attributes under a lease that
	// ends no earlier — is no change.
	if !ok || a.ID != old.ID || a.Addr != old.Addr || !slices.Equal(a.Attrs, old.Attrs) || a.Expires.Before(old.Expires) {
		r.version++
	}
}

// byName orders advertisements by name, for slices.SortFunc.
func byName(a, b Advertisement) int { return strings.Compare(a.Name, b.Name) }

// query returns the entries named name (every name when empty) in name
// order.
func (r *refCache) query(name string) []Advertisement {
	var out []Advertisement
	for _, a := range r.advs {
		if name == "" || a.Name == name {
			out = append(out, a)
		}
	}
	slices.SortFunc(out, byName)
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
// and the reference side by side: publishes of new names (evicting once the
// cache is full) and of held ones with a new payload, republishes of a held
// entry under a longer or shorter lease, clock advances (some onto an expiry
// instant, some followed by a Sweep) and clears. After every step it compares
// every read: Query, whole and for every name the program uses plus names it
// never publishes, AppendAll into one reused buffer behind an entry it must
// keep, LiveLen, Lookup of every name, and Stamp, which must count changes
// exactly as the reference does. Every whole result taken at an earlier step
// must still hold what it held then.
func checkCacheProgram(seed int64, limit, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	clock, cur := clockAt(base)
	c := NewCache(limit, clock)
	ref := &refCache{advs: make(map[string]Advertisement), limit: limit}
	// Names share prefixes, so a search's bounds are exercised; the absent
	// ones sort before, between and after the published ones.
	names := []string{"a", "ab", "abc", "b", "ba", "c", "ca", "d"}
	absent := []string{"0", "aa", "b0", "bb", "zz"}
	type heldResult struct {
		got, want []Advertisement
		step      int
	}
	var held []heldResult
	var buf []Advertisement // AppendAll's, reused across steps
	publishes := 0
	draw := func(name string) Advertisement {
		publishes++
		// One of eight leases, one of them already over: publishes between
		// two clock advances often end at one instant, so evictions choose
		// among equals.
		ttl := time.Duration(rng.Intn(8)*10-5) * time.Second
		return Advertisement{Kind: AdvPeer, ID: NewID("peer", name), Name: name, Addr: name + "/transfer", Expires: cur.Add(ttl),
			Attrs: []Attr{{"n", strconv.Itoa(publishes)}}}
	}

	for step := 1; step <= steps; step++ {
		var what string
		fail := func(format string, args ...any) error {
			return fmt.Errorf("seed %d, limit %d, step %d (%s): %s", seed, limit, step, what, fmt.Sprintf(format, args...))
		}
		now := *cur
		switch op := rng.Intn(23); {
		case op < 11: // publish a name, new or held: a new lease and payload
			a := draw(names[rng.Intn(len(names))])
			what = fmt.Sprintf("publish %q until %v", a.Name, a.Expires.Sub(now))
			c.Publish(a)
			ref.publish(a, now)
		case op < 14: // republish a held entry as it is, its lease moved either way
			all := ref.query("")
			if len(all) == 0 {
				what = "nothing"
				break
			}
			a := all[rng.Intn(len(all))]
			a.Expires = a.Expires.Add(time.Duration(rng.Intn(21)-10) * time.Second)
			what = fmt.Sprintf("republish %q until %v", a.Name, a.Expires.Sub(now))
			c.Publish(a)
			ref.publish(a, now)
		case op < 21: // advance the clock, sometimes onto an expiry instant exactly
			d := time.Duration(1 + rng.Int63n(int64(20*time.Second)))
			if all := ref.query(""); len(all) > 0 && rng.Intn(2) == 0 {
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
				want := ref.query("")
				got := c.Query(AdvPeer, "")
				if !sameAdvs(got, want) {
					return fail("Query(\"\") = %d entries, reference %d, or they differ", len(got), len(want))
				}
				held = append(held, heldResult{got, slices.Clone(want), step})
				buf = c.AppendAll(append(buf[:0], Advertisement{Name: "kept"}))
				if buf[0].Name != "kept" || !sameAdvs(buf[1:], want) {
					return fail("AppendAll = %d entries after the kept one, reference %d, or they differ", len(buf)-1, len(want))
				}
				if n := c.LiveLen(); n != len(want) {
					return fail("LiveLen = %d, reference %d", n, len(want))
				}
				return nil
			},
			func() error {
				for _, name := range slices.Concat(names, absent) {
					if got, want := c.Query(AdvPeer, name), ref.query(name); !sameAdvs(got, want) {
						return fail("Query(%q) = %+v, reference %+v", name, got, want)
					}
				}
				return nil
			},
			func() error {
				for _, name := range slices.Concat(names, absent) {
					got, ok := c.Lookup(name)
					want, wantOK := ref.advs[name]
					if ok != wantOK || !sameAdvs([]Advertisement{got}, []Advertisement{want}) {
						return fail("Lookup(%q) = %+v, %v; reference %+v, %v", name, got, ok, want, wantOK)
					}
				}
				return nil
			},
			func() error {
				if got := c.Stamp(); got != ref.version {
					return fail("Stamp = %d, reference counts %d changes", got, ref.version)
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
				return fail("a whole result taken at step %d changed: %+v, was %+v", h.step, h.got, h.want)
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
