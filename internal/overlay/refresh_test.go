package overlay

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// scriptedBroker binds the broker service on a node of its own and answers
// every control conn with a copy of reply(kind of the request): what a
// broker's frames do to a client, without a broker behind them.
func scriptedBroker(t *testing.T, n *simnet.Network, reply func(kind byte) []byte) transport.Addr {
	t.Helper()
	host := n.MustAddNode("scripted0", simnet.DefaultProfile())
	ep, err := host.Endpoint(ServiceBroker)
	if err != nil {
		t.Fatal(err)
	}
	mux := pipe.NewMux(host, ep, pipe.Options{})
	host.Go(func() {
		for {
			conn, err := mux.Accept()
			if err != nil {
				return
			}
			host.Go(func() {
				defer conn.Close()
				if msg, err := conn.Recv(); err == nil && len(msg.Payload) > 0 {
					conn.Send(append([]byte(nil), reply(msg.Payload[0])...))
				}
			})
		}
	})
	return ep.Addr()
}

// directoryOf is the scripted broker's honest answer: mtAck to a heartbeat,
// the discover reply for advs to a discover.
func directoryOf(advs []jxta.Advertisement) func(byte) []byte {
	frame := referenceDiscoverFrame(advs)
	return func(kind byte) []byte {
		if kind == mtDiscover {
			return frame
		}
		return ackFrame
	}
}

// degradingClient boots sc1 beside sc2 and sc3 (CPU score 4) against a real
// broker under a degrading call policy, so its cache holds a three-peer
// directory once it has discovered, and returns it with the deployment.
func degradingClient(t *testing.T) (*deployment, *Client) {
	t.Helper()
	fast := clientProfile()
	fast.CPUScore = 4
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile(), "sc3": fast})
	for _, c := range d.clients {
		c.cfg.Resilient = true
	}
	return d, d.clients["sc1"]
}

// TestBadDiscoverReplyKeepsCachedDirectory: a discover reply that is
// truncated, carries trailing bytes, a short id, an attribute or
// advertisement count its input cannot hold, or the wrong kind makes
// Discover return exactly the error decoding that reply returns, and the
// cached directory — what degradedPick and Discover answer from — stays
// the one the last good reply left, whether the bad reply came to Discover
// or to a heartbeat's refresh.
func TestBadDiscoverReplyKeepsCachedDirectory(t *testing.T) {
	good := referenceDiscoverFrame(randomPeerAdvs(rand.New(rand.NewSource(7)), 5))
	shortID := wire.NewEncoder(64)
	shortID.Byte(mtDiscoverResult)
	shortID.Uint64(1)
	shortID.Byte(byte(jxta.AdvPeer))
	shortID.BytesField(make([]byte, 15))
	shortID.String("n")
	shortID.String("a")
	shortID.Time(time.Unix(1, 0))
	shortID.Uint64(0)
	hostileAttrs := append([]byte{mtDiscoverResult, 0x01, 0x01, 0x10}, make([]byte, 16+3)...)
	hostileAttrs = append(hostileAttrs, 0xFF, 0xFF, 0x03)
	type badReply struct {
		name  string
		frame []byte
		class string // errClass of the error, "" where the cut decides it
	}
	bad := []badReply{
		{"count only", good[:2], "short"},
		{"trailing garbage", append(good[:len(good):len(good)], 0x00), "corrupt"},
		{"bad id", shortID.Bytes(), "corrupt"},
		{"hostile advertisement count", append([]byte{mtDiscoverResult, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, good[2:]...), "short"},
		{"hostile attribute count", hostileAttrs, "corrupt"},
		{"wrong kind", []byte{mtSelectResult, 0x00}, "other: " + ErrBadReply.Error() + ": discover"},
		{"kind only", []byte{mtDiscoverResult}, "short"},
	}
	for cut := 1; cut < len(good); cut += 7 {
		bad = append(bad, badReply{fmt.Sprintf("truncated at %d of %d", cut, len(good)), good[:cut], ""})
	}
	var script []byte
	d, c := degradingClient(t)
	fake := scriptedBroker(t, d.net, func(kind byte) []byte {
		if kind == mtDiscover {
			return script
		}
		return ackFrame
	})
	d.net.Run(func() {
		d.startAll(t)
		held, err := c.Discover()
		if err != nil || len(held) != 3 {
			t.Errorf("Discover = %d advertisements, %v", len(held), err)
			return
		}
		c.broker = fake
		for _, tc := range bad {
			script = tc.frame
			got, err := c.Discover()
			if got != nil || err == nil || (tc.class != "" && errClass(err) != tc.class) {
				t.Errorf("%s: Discover = %v, %v; want an error of class %q", tc.name, got, err, tc.class)
			}
			if tc.frame[0] == mtDiscoverResult {
				if _, want := scanDiscoverResult(wire.NewDecoder(tc.frame[1:])); want == nil || err == nil || err.Error() != want.Error() {
					t.Errorf("%s: Discover returned %v, decoding the reply returns %v", tc.name, err, want)
				}
			}
			if err := c.ReportStats(); err != nil { // the heartbeat's refresh meets the same reply
				t.Errorf("%s: ReportStats: %v", tc.name, err)
			}
			if dir := c.res.snapshotDir(); len(dir) != 3 || &dir[0] != &held[0] {
				t.Errorf("%s: the cached directory is no longer the last good one", tc.name)
			}
			if peers := c.degradedPick(0, nil); !reflect.DeepEqual(peers, []string{"sc3", "sc2"}) {
				t.Errorf("%s: degradedPick = %v, want [sc3 sc2]", tc.name, peers)
			}
		}
	})
}

// TestDegradedReadsSeeNewestDirectory: after each good refresh — a Discover
// or a heartbeat's — degradedPick and Discover's own result answer from that
// reply's directory, not an earlier one.
func TestDegradedReadsSeeNewestDirectory(t *testing.T) {
	adv := func(name, cpu string) jxta.Advertisement {
		a := jxta.Advertisement{Kind: jxta.AdvPeer, ID: jxta.NewID("peer", name), Name: name, Addr: name + "/" + ServiceTransfer, Expires: time.Unix(1e9, 0).UTC()}
		return a.WithAttr(jxta.AttrCPUScore, cpu)
	}
	dirs := [][]jxta.Advertisement{
		{adv("a1", "1"), adv("a2", "3")},
		{adv("b1", "2"), adv("b2", "1"), adv("b3", "5")},
		{adv("c1", "1")},
	}
	var answer func(byte) []byte
	d, c := degradingClient(t)
	fake := scriptedBroker(t, d.net, func(kind byte) []byte { return answer(kind) })
	check := func(step string, dir []jxta.Advertisement, best string) {
		t.Helper()
		if peers := c.degradedPick(1, nil); len(peers) != 1 || peers[0] != best {
			t.Errorf("%s: degradedPick = %v, want [%s]", step, peers, best)
		}
		if got := c.res.snapshotDir(); !sameAdvs(got, dir) {
			t.Errorf("%s: the cached directory is %+v, want %+v", step, got, dir)
		}
	}
	d.net.Run(func() {
		d.startAll(t)
		c.broker = fake
		answer = directoryOf(dirs[0])
		if got, err := c.Discover(); err != nil || !sameAdvs(got, dirs[0]) {
			t.Errorf("Discover = %+v, %v", got, err)
		}
		check("Discover", dirs[0], "a2")
		answer = directoryOf(dirs[1])
		if err := c.ReportStats(); err != nil {
			t.Errorf("ReportStats: %v", err)
		}
		check("heartbeat", dirs[1], "b3")
		answer = directoryOf(dirs[2])
		if err := c.ReportStats(); err != nil {
			t.Errorf("ReportStats: %v", err)
		}
		answer = directoryOf(nil) // two refreshes with no read between them
		if err := c.ReportStats(); err != nil {
			t.Errorf("ReportStats: %v", err)
		}
		if peers := c.degradedPick(1, nil); peers != nil {
			t.Errorf("degradedPick over an empty directory = %v", peers)
		}
		answer = directoryOf(dirs[2])
		if got, err := c.Discover(); err != nil || !sameAdvs(got, dirs[2]) {
			t.Errorf("last Discover = %+v, %v", got, err)
		}
		check("last Discover", dirs[2], "c1")
	})
}

// TestDiscoverResultUnchangedByHeartbeatRefresh: a slice a caller got from
// Discover is never written by the refreshes that follow it, read or unread
// (TestCachedDirectoryUnchangedByNextDiscover holds a second Discover to the
// same rule).
func TestDiscoverResultUnchangedByHeartbeatRefresh(t *testing.T) {
	d, c := degradingClient(t)
	var first, want []jxta.Advertisement
	d.net.Run(func() {
		d.startAll(t)
		var err error
		if first, err = c.Discover(); err != nil {
			t.Errorf("Discover: %v", err)
			return
		}
		want = append([]jxta.Advertisement(nil), first...)
		for i := range want {
			want[i].Attrs = append([]jxta.Attr(nil), first[i].Attrs...)
		}
		d.clients["sc2"].Stop()
		d.broker.Restart()
		for _, name := range []string{"sc3", "sc1", "sc1"} { // sc3 and sc1 resurrect; sc1 refreshes twice
			if err := d.clients[name].ReportStats(); err != nil {
				t.Errorf("ReportStats(%s): %v", name, err)
			}
		}
		if peers := c.degradedPick(0, nil); !reflect.DeepEqual(peers, []string{"sc3"}) {
			t.Errorf("degradedPick after the restart = %v, want [sc3]", peers)
		}
	})
	if len(first) != 3 || !reflect.DeepEqual(first, want) {
		t.Fatalf("the directory Discover returned changed under later refreshes:\n got %+v\nwant %+v", first, want)
	}
}

// refreshReplies are the discover replies for two different n-peer
// directories, as a 4-shard broker frames them: a client that refreshes from
// one to the other scans each.
func refreshReplies(t testing.TB, n int) [2][]byte {
	var replies [2][]byte
	for i := range replies {
		b := bareBroker(t)
		publishAll(b, randomPeerAdvs(rand.New(rand.NewSource(int64(n+i))), n))
		replies[i] = b.directoryReply()
	}
	return replies
}

// TestRefreshAllocBudget gates what a heartbeat's directory refresh costs the
// client, pipe aside, on the 128-peer directory of the faults benchmark:
// keeping a new reply allocates nothing; the first read after it pays the
// bulk decode's 3 (slice, attribute arena, one string); reads after that and
// before the next new reply pay nothing, and so does a refresh to the reply
// the client holds, whose decoding stands.
func TestRefreshAllocBudget(t *testing.T) {
	replies := refreshReplies(t, 128)
	var res resilience
	var next int
	refresh := func() {
		next = 1 - next
		if err := res.setDir(replies[next]); err != nil {
			t.Fatal(err)
		}
	}
	if allocs := testing.AllocsPerRun(50, refresh); allocs != 0 {
		t.Errorf("%v allocations to keep a new 128-peer reply, budget 0", allocs)
	}
	if allocs := testing.AllocsPerRun(50, func() { refresh(); res.snapshotDir() }); allocs > 3 {
		t.Errorf("%v allocations for a new reply and the first read after it, budget 3", allocs)
	}
	held := res.snapshotDir()
	if allocs := testing.AllocsPerRun(50, func() { res.snapshotDir() }); allocs != 0 {
		t.Errorf("%v allocations for a read after the first, budget 0", allocs)
	}
	same := func() {
		if err := res.setDir(append([]byte(nil), replies[next]...)); err != nil {
			t.Fatal(err)
		}
		res.snapshotDir()
	}
	if allocs := testing.AllocsPerRun(50, same); allocs != 1 { // the copy
		t.Errorf("%v allocations for a copy of the reply held and a read after it, budget 1 (the copy)", allocs)
	}
	if got := res.snapshotDir(); len(got) != 128 || &got[0] != &held[0] {
		t.Fatalf("reads between new replies returned different slices (%d advertisements)", len(got))
	}
}

// BenchmarkDirectoryRefresh prices the client side of one heartbeat's
// refresh, pipe aside: keeping a new reply (validate), keeping it and reading
// it (validate+decode) — what every refresh cost while the cache held the
// decoded slice — and keeping the reply the client holds and reading it
// (same), what a refresh costs while the directory has not changed.
func BenchmarkDirectoryRefresh(b *testing.B) {
	for _, n := range []int{128, 1024} {
		replies := refreshReplies(b, n)
		for _, mode := range []string{"validate", "validate+decode", "same"} {
			b.Run(fmt.Sprintf("entries=%d/%s", n, mode), func(b *testing.B) {
				var res resilience
				if mode == "same" {
					res.setDir(replies[0])
					res.snapshotDir()
				}
				b.ReportAllocs()
				b.SetBytes(int64(len(replies[0])))
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					reply := replies[i%2]
					if mode == "same" {
						reply = replies[0]
					}
					if err := res.setDir(reply); err != nil {
						b.Fatal(err)
					}
					if mode != "validate" && len(res.snapshotDir()) != n {
						b.Fatal("short directory")
					}
				}
			})
		}
	}
}

// TestDegradedPickScoresLikeTheBroker: a degraded pick ranks an advertised
// CPU score by the rule the broker stores scores by (validScore), so a score
// of 0 or −5 reads as the neutral 1, as a missing one does, and ties order
// by name.
func TestDegradedPickScoresLikeTheBroker(t *testing.T) {
	adv := func(name, cpu string) jxta.Advertisement {
		a := jxta.Advertisement{Kind: jxta.AdvPeer, ID: jxta.NewID("peer", name), Name: name, Addr: name + "/" + ServiceTransfer, Expires: time.Unix(1e9, 0).UTC()}
		if cpu == "" {
			return a
		}
		return a.WithAttr(jxta.AttrCPUScore, cpu)
	}
	dir := []jxta.Advertisement{adv("neg", "-5"), adv("none", ""), adv("two", "2"), adv("zero", "0")}
	d, c := degradingClient(t)
	fake := scriptedBroker(t, d.net, directoryOf(dir))
	d.net.Run(func() {
		d.startAll(t)
		c.broker = fake
		if _, err := c.Discover(); err != nil {
			t.Errorf("Discover: %v", err)
		}
		want := []string{"two", "neg", "none", "zero"}
		if got := c.degradedPick(0, nil); !reflect.DeepEqual(got, want) {
			t.Errorf("degradedPick = %v, want %v", got, want)
		}
	})
}
