package overlay

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/simnet"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// refDirectory is the reference lease directory the broker's sharded,
// indexed one must match: one map, and a full scan and sort per query. It
// keeps no index, no expiry bound, no merge and no shards; whether an entry
// is live is decided against the clock each time it is read.
//
// It also keeps shown, the directory a reader of the broker's merge sees:
// the live entries as of the last change such a reader can see — an insert,
// a removal (an expiry, an eviction, a restart) or a publish that is not a
// renewal (renews). It marks the change on the event, not by comparing
// states, because an entry that expires and comes back identical still
// changed the directory.
type refDirectory struct {
	advs  map[string]jxta.Advertisement
	shown []jxta.Advertisement
	dirty bool // a change since shown was taken
}

// settle drops every entry whose lease is over at now; each drop is a change.
func (r *refDirectory) settle(now time.Time) {
	for name, a := range r.advs {
		if !a.Expires.After(now) {
			r.remove(name)
		}
	}
}

func (r *refDirectory) publish(a jxta.Advertisement, now time.Time) {
	if !a.Expires.After(now) {
		return
	}
	r.settle(now)
	old, ok := r.advs[a.Name]
	r.advs[a.Name] = a
	r.dirty = r.dirty || !ok || !renews(a, old)
}

func (r *refDirectory) remove(name string) {
	delete(r.advs, name)
	r.dirty = true
}

func (r *refDirectory) clear() {
	clear(r.advs)
	r.dirty = true
}

// renews reports whether publishing a over old is a renewal: the same ID,
// address and attributes under a lease that ends no earlier.
func renews(a, old jxta.Advertisement) bool {
	return a.ID == old.ID && a.Addr == old.Addr && slices.Equal(a.Attrs, old.Attrs) && !a.Expires.Before(old.Expires)
}

// view returns the directory a reader of the merge sees at now: the live
// entries as of the last change, taken by the first read after it.
func (r *refDirectory) view(now time.Time) []jxta.Advertisement {
	r.settle(now)
	if r.dirty {
		r.shown, r.dirty = r.query(now, nil), false
	}
	return r.shown
}

func (r *refDirectory) lookup(name string, now time.Time) (jxta.Advertisement, bool) {
	a, ok := r.advs[name]
	if !ok || !a.Expires.After(now) {
		return jxta.Advertisement{}, false
	}
	return a, true
}

// byName orders advertisements by name, for slices.SortFunc.
func byName(a, b jxta.Advertisement) int { return strings.Compare(a.Name, b.Name) }

// query returns the entries live at now that keep accepts (all of them when
// keep is nil), in name order.
func (r *refDirectory) query(now time.Time, keep func(jxta.Advertisement) bool) []jxta.Advertisement {
	var out []jxta.Advertisement
	for _, a := range r.advs {
		if a.Expires.After(now) && (keep == nil || keep(a)) {
			out = append(out, a)
		}
	}
	slices.SortFunc(out, byName)
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

// renewedFrom reports whether got is was apart from leases that only moved
// later: the same entries in the same order, each lease no earlier.
func renewedFrom(got, was []jxta.Advertisement) bool {
	return slices.EqualFunc(got, was, func(a, b jxta.Advertisement) bool {
		return a.Kind == b.Kind && a.Name == b.Name && renews(a, b)
	})
}

// leaseProgramTTL is the lease the program's broker grants on its own publish
// path; direct cache publishes draw shorter and longer ones around it.
const leaseProgramTTL = 40 * time.Second

// checkLeaseProgram runs a seeded program of publishes, renewals, republishes
// under a longer or shorter lease, clock advances, sweeps, restarts and
// removals against a broker of the given shard count and the reference
// directory side by side, and after every step compares every read the serve
// path has: Cache.Lookup of every name the program knows, the named and whole
// Cache.Query of every shard, Broker.Advertisements, and the
// discover reply. The last two must be the reference's directory as of its
// last change a reader can see, the reply byte for byte. Per shard it also
// holds Cache.Stamp to its contract: a stamp seen before means the live set —
// entries and payloads — seen with it, apart from leases that only moved
// later, so a live set that changed otherwise must have changed the stamp.
// The reads run in a different order after every step, because each of them
// may be the one that first notices an expiry.
func checkLeaseProgram(seed int64, shards, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(seed)
	host := net.MustAddNode("broker0", simnet.DefaultProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: shards, CacheLimit: 4096, AdvTTL: leaseProgramTTL})
	if err != nil {
		return err
	}
	// The peers the program draws from: ten names, each with a count of its
	// publishes.
	type ident struct {
		name      string
		publishes int
	}
	var idents []*ident
	var names []string
	for i := 0; i < 10; i++ {
		name := "n" + strconv.Itoa(i)
		names = append(names, name)
		idents = append(idents, &ident{name: name})
	}
	ref := &refDirectory{advs: make(map[string]jxta.Advertisement)}
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
			for _, name := range names {
				got, ok := b.shardOf(name).Lookup(name)
				want, wantOK := ref.lookup(name, now)
				if ok != wantOK || !sameAdvs([]jxta.Advertisement{got}, []jxta.Advertisement{want}) {
					return fail("Lookup(%s) = %+v, %v; reference %+v, %v", name, got, ok, want, wantOK)
				}
			}
			return nil
		},
		func(now time.Time) error { // per-shard whole Query
			for i, sh := range b.shards {
				want := ref.query(now, func(a jxta.Advertisement) bool { return shardIndex(a.Name) == i })
				if got := sh.Query(jxta.AdvPeer, ""); !sameAdvs(got, want) {
					return fail("shard %d Query = %d entries, reference %d, or they differ", i, len(got), len(want))
				}
			}
			return nil
		},
		func(now time.Time) error { // named Cache.Query on the owning shard
			for _, name := range names {
				want := ref.query(now, func(a jxta.Advertisement) bool { return a.Name == name })
				if got := b.shardOf(name).Query(jxta.AdvPeer, name); !sameAdvs(got, want) {
					return fail("Query(%s) = %+v, reference %+v", name, got, want)
				}
			}
			return nil
		},
		func(now time.Time) error { // Cache.Stamp
			for i, sh := range b.shards {
				stamp := sh.Stamp()
				live := ref.query(now, func(a jxta.Advertisement) bool { return shardIndex(a.Name) == i })
				if was, ok := seen[i][stamp]; ok && !renewedFrom(live, was) {
					return fail("shard %d returned stamp %d for two live sets that differ beyond leases moved later (%d entries, then %d)", i, stamp, len(was), len(live))
				}
				seen[i][stamp] = live
			}
			return nil
		},
		func(now time.Time) error { // Broker.Advertisements and the discover reply
			want := ref.view(now)
			if got := b.Advertisements(); !sameAdvs(got, want) {
				return fail("Advertisements = %d entries, reference %d, or they differ", len(got), len(want))
			}
			fresh := wire.NewEncoder(0)
			encodeDiscoverResult(fresh, want)
			if reply := b.directoryReply(); !bytes.Equal(reply, fresh.Bytes()) {
				return fail("discover replied %d bytes, a fresh encode of the reference's %d entries is %d, or they differ", len(reply), len(want), fresh.Len())
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
			switch op := rng.Intn(18); {
			case op < 4: // publish or renew through the broker, under its own lease
				what = "broker publish " + it.name
				it.publishes++
				a := jxta.Advertisement{Kind: jxta.AdvPeer, ID: jxta.NewID("peer", it.name), Name: it.name, Addr: it.name + "/transfer"}
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
				a := jxta.Advertisement{Kind: jxta.AdvPeer, ID: jxta.NewID("peer", it.name), Name: it.name, Expires: now.Add(ttl),
					Attrs: []jxta.Attr{{Key: "n", Value: strconv.Itoa(it.publishes)}}}
				b.shardOf(it.name).Publish(a)
				ref.publish(a, now)
			case op < 10: // republish a live entry as it is, its lease moved either way
				a, ok := ref.lookup(it.name, now)
				if !ok {
					what = "nothing"
					break
				}
				a.Expires = a.Expires.Add(time.Duration(rng.Intn(21)-10) * time.Second)
				what = fmt.Sprintf("republish %s until %v", it.name, a.Expires.Sub(now))
				b.shardOf(it.name).Publish(a)
				ref.publish(a, now)
			case op < 13: // advance the clock by an arbitrary amount
				d := time.Duration(1 + rng.Int63n(int64(30*time.Second)))
				what = fmt.Sprintf("sleep %v", d)
				host.Sleep(d)
			case op < 16: // advance the clock onto an expiry instant exactly
				a, ok := ref.lookup(it.name, now)
				if !ok {
					what = "nothing"
					break
				}
				what = "sleep onto the expiry of " + it.name
				host.Sleep(a.Expires.Sub(now))
			case op < 17:
				what = "sweep"
				for _, sh := range b.shards {
					sh.Sweep(now)
				}
			default:
				what = "restart"
				b.Restart()
				ref.clear()
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

// refPeers is refDirectory under the broker's rules: a register or a report
// stores the peer under a fresh lease, a report from a peer whose lease
// lapsed rebuilds its entry, and a shard at its limit makes room for a new
// name by evicting its live entry closest to expiry, the first by name among
// equals.
type refPeers struct {
	refDirectory
	limit int
	shard func(name string) int
}

// store publishes a as the broker does: as a peer, under a fresh lease.
func (r *refPeers) store(a jxta.Advertisement, now time.Time, ttl time.Duration) {
	a.Kind, a.ID, a.Expires = jxta.AdvPeer, jxta.NewID("peer", a.Name), now.Add(ttl)
	if _, ok := r.lookup(a.Name, now); !ok {
		owned := r.query(now, func(b jxta.Advertisement) bool { return r.shard(b.Name) == r.shard(a.Name) })
		if len(owned) >= r.limit {
			victim := slices.MinFunc(owned, func(a, b jxta.Advertisement) int { return a.Expires.Compare(b.Expires) })
			r.remove(victim.Name)
		}
	}
	r.publish(a, now)
}

// lease returns the entry a report from name renews: the live one, or the one
// the broker rebuilds for a lapsed lease, its transfer address taken from the
// reporting node.
func (r *refPeers) lease(name, from string, now time.Time) (jxta.Advertisement, bool) {
	if a, ok := r.lookup(name, now); ok {
		return a, false
	}
	return jxta.Advertisement{Name: name, Addr: string(transport.MakeAddr(from, ServiceTransfer))}, true
}

// checkBrokerDirectoryProgram runs a seeded program against a broker of the
// given shard count, every step a frame sent to its handlers from a probe
// node — registers (some unnamed, some claiming another kind or ID),
// heartbeats and piece reports, each of which may resurrect a lapsed or
// evicted peer — or a Restart or a clock advance: an arbitrary one, one past
// the lease, one onto an expiry instant exactly. The cache limit is small, so
// publishes evict, often among leases that end at one instant; the names
// cross the p999/p1000 boundary, where name order is not number order. After
// every step it compares Broker.Peers with the reference's live names, the
// discover reply's bytes with a fresh encode of its directory as of its last
// change a reader can see, and every ack with what the reference expects.
func checkBrokerDirectoryProgram(seed int64, shards, steps int) error {
	const ttl, limit = leaseProgramTTL, 3
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(seed)
	host := net.MustAddNode("broker0", instantProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: shards, CacheLimit: limit, AdvTTL: ttl})
	if err != nil {
		return err
	}
	mux, rpc, err := newProbe(net, b)
	if err != nil {
		return err
	}
	names := make([]string, 12)
	for i := range names {
		names[i] = "p" + strconv.Itoa(994+i)
	}
	ref := &refPeers{refDirectory: refDirectory{advs: make(map[string]jxta.Advertisement)}, limit: limit,
		shard: func(name string) int { return slices.Index(b.shards, b.shardOf(name)) }}
	cpuScores := []float64{0, -1, 0.5, 2, math.Inf(1), math.NaN()}

	var step int
	var what string
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d, %d shards, step %d (%s): %s", seed, shards, step, what, fmt.Sprintf(format, args...))
	}
	// call sends req and checks that the exchange took no virtual time, so
	// the broker handled it at the instant the reference is read at.
	call := func(req []byte) ([]byte, error) {
		before := host.Now()
		reply, err := rpc(req)
		if err == nil && !host.Now().Equal(before) {
			err = fmt.Errorf("the exchange took %v", host.Now().Sub(before))
		}
		return reply, err
	}
	var failure error
	net.Run(func() {
		defer b.Close()
		defer mux.Close()
		for step = 1; step <= steps && failure == nil; step++ {
			now := host.Now()
			name := names[rng.Intn(len(names))]
			switch op := rng.Intn(20); {
			case op < 5:
				adv := jxta.Advertisement{Kind: jxta.AdvKind(rng.Intn(4)), ID: jxta.NewID("claim", strconv.Itoa(rng.Intn(3))),
					Name: name, Addr: string(transport.MakeAddr(name, ServiceTransfer))}
				if rng.Intn(8) == 0 {
					adv.Name = ""
				}
				if rng.Intn(2) == 0 {
					adv = adv.WithAttr(jxta.AttrCPUScore, strconv.Itoa(1+rng.Intn(4)))
				}
				if rng.Intn(3) == 0 {
					adv = adv.WithAttr("site", names[rng.Intn(len(names))])
				}
				what = fmt.Sprintf("register %q", adv.Name)
				reply, err := call(wire.Frame(mtRegister, register{Adv: adv, Stats: statsReport{Peer: adv.Name}}.encodeTo))
				if err != nil {
					failure = fail("%v", err)
					return
				}
				if adv.Name != "" {
					ref.store(adv, now, ttl)
				}
				if _, d, err := wire.Tag(reply); err != nil {
					failure = fail("ack: %v", err)
					return
				} else if ack, err := decodeRegisterAck(d); err != nil || ack.OK != (adv.Name != "") {
					failure = fail("ack %+v, %v; want OK %v", ack, err, adv.Name != "")
					return
				}
			case op < 10:
				cpu := cpuScores[rng.Intn(len(cpuScores))]
				what = fmt.Sprintf("heartbeat %s, cpu %v", name, cpu)
				reply, err := call(wire.Frame(mtStatsReport, statsReport{Peer: name, CPUScore: cpu}.encodeTo))
				if err != nil || !bytes.Equal(reply, ackFrame) {
					failure = fail("reply % x, %v", reply, err)
					return
				}
				adv, lapsed := ref.lease(name, "probe", now)
				if lapsed && cpu > 0 && finite(cpu) {
					adv = adv.WithAttr(jxta.AttrCPUScore, strconv.FormatFloat(cpu, 'f', -1, 64))
				}
				ref.store(adv, now, ttl)
			case op < 13:
				var have, unchoked []string
				var indices []int
				for p := rng.Intn(4); p > 0; p-- {
					indices = append(indices, rng.Intn(transfer.MaxPieces))
					have = append(have, strconv.Itoa(indices[len(indices)-1]))
				}
				for u := rng.Intn(3); u > 0; u-- {
					unchoked = append(unchoked, names[rng.Intn(len(names))])
				}
				what = fmt.Sprintf("piece report %s: %v, %v", name, have, unchoked)
				reply, err := call(pieceReportFrame(name, indices, unchoked))
				if err != nil || !bytes.Equal(reply, ackFrame) {
					failure = fail("reply % x, %v", reply, err)
					return
				}
				adv, _ := ref.lease(name, "probe", now)
				adv = adv.WithAttr(jxta.AttrPieces, strings.Join(have, ","))
				adv = adv.WithAttr(jxta.AttrUnchoked, strings.Join(unchoked, ","))
				ref.store(adv, now, ttl)
			case op < 14:
				what = "restart"
				b.Restart()
				ref.clear()
			case op < 16:
				d := time.Duration(1 + rng.Int63n(int64(ttl/2)))
				what = fmt.Sprintf("sleep %v", d)
				host.Sleep(d)
			case op < 17:
				d := ttl + time.Duration(rng.Int63n(int64(ttl)))
				what = fmt.Sprintf("sleep past the lease, %v", d)
				host.Sleep(d)
			default:
				a, ok := ref.lookup(name, now)
				if !ok {
					what = "nothing"
					break
				}
				what = "sleep onto the expiry of " + name
				host.Sleep(a.Expires.Sub(now))
			}
			now = host.Now()
			want := ref.query(now, nil)
			wantNames := make([]string, len(want))
			for i, a := range want {
				wantNames[i] = a.Name
			}
			if got := b.Peers(); !slices.Equal(got, wantNames) {
				failure = fail("Peers() = %q, reference %q", got, wantNames)
				return
			}
			reply, err := call(discoverFrame)
			if err != nil {
				failure = fail("discover: %v", err)
				return
			}
			shown := ref.view(now)
			fresh := wire.NewEncoder(0)
			encodeDiscoverResult(fresh, shown)
			if !bytes.Equal(reply, fresh.Bytes()) {
				failure = fail("discover replied %d bytes, a fresh encode of the reference's %d entries as of its last change is %d, or they differ", len(reply), len(shown), fresh.Len())
				return
			}
		}
	})
	return failure
}

// TestBrokerDirectoryMatchesReference is the oracle for the broker's peer
// directory as its handlers keep it: seeded programs at one and three
// shards, Peers and the discover reply compared with the reference after
// every step.
func TestBrokerDirectoryMatchesReference(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		for _, shards := range []int{1, 3} {
			if err := checkBrokerDirectoryProgram(int64(seed), shards, 300); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// FuzzBrokerDirectoryMatchesReference hands (seed, shards, steps) to the
// fuzzer.
func FuzzBrokerDirectoryMatchesReference(f *testing.F) {
	f.Add(int64(1), uint8(1), uint16(60))
	f.Add(int64(2), uint8(3), uint16(400))
	f.Add(int64(3), uint8(2), uint16(200))
	f.Fuzz(func(t *testing.T, seed int64, shards uint8, steps uint16) {
		if err := checkBrokerDirectoryProgram(seed, 1+int(shards)%4, int(steps)%500); err != nil {
			t.Fatal(err)
		}
	})
}
