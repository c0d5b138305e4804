package overlay

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"sync"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/simnet"
	"peerlab/internal/transfer"
	"peerlab/internal/wire"
)

// randomPeerAdvs draws n peer advertisements with distinct names, 0–3
// attributes each and the occasional empty address, key or value.
func randomPeerAdvs(rng *rand.Rand, n int) []jxta.Advertisement {
	str := func() string {
		if rng.Intn(5) == 0 {
			return ""
		}
		b := make([]byte, 1+rng.Intn(20))
		for i := range b {
			b[i] = byte('a' + rng.Intn(26))
		}
		return string(b)
	}
	advs := make([]jxta.Advertisement, n)
	for i := range advs {
		name := fmt.Sprintf("%s-%d", str(), i)
		a := jxta.Advertisement{Kind: jxta.AdvPeer, ID: jxta.NewID("peer", name), Name: name, Addr: str()}
		for k := rng.Intn(4); k > 0; k-- {
			a.Attrs = append(a.Attrs, jxta.Attr{Key: str(), Value: str()})
		}
		advs[i] = a
	}
	return advs
}

// bareBroker is a 4-shard broker on a simnet of its own, roomy enough for
// every directory these tests publish.
func bareBroker(t testing.TB) *Broker {
	t.Helper()
	host := simnet.New(21).MustAddNode("broker0", simnet.DefaultProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: 4, CacheLimit: 8192})
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// publishAll puts advs into the broker's shards the way registration does.
func publishAll(b *Broker, advs []jxta.Advertisement) {
	for _, a := range advs {
		a.Expires = b.host.Now().Add(time.Hour)
		b.shardOf(a.Name).Publish(a)
	}
}

// referenceDiscoverFrame is the reply spelled out: tag, count, then one
// merged, sorted slice encoded in order.
func referenceDiscoverFrame(advs []jxta.Advertisement) []byte {
	e := wire.NewEncoder(64 * len(advs))
	e.Byte(mtDiscoverResult)
	e.Uint64(uint64(len(advs)))
	for _, a := range advs {
		a.Encode(e)
	}
	return e.Bytes()
}

// referenceDecodeDiscoverResult is the decoder the bulk decode replaced: one
// loopDecodeAdvertisement per counted entry, then the trailing-byte check.
func referenceDecodeDiscoverResult(d *wire.Decoder) ([]jxta.Advertisement, error) {
	n := d.Uint64()
	if err := d.Err(); err != nil {
		return nil, err
	}
	var advs []jxta.Advertisement
	for i := uint64(0); i < n; i++ {
		a, err := loopDecodeAdvertisement(d)
		if err != nil {
			return nil, err
		}
		advs = append(advs, a)
	}
	return advs, d.Finish()
}

func errClass(err error) string {
	switch {
	case err == nil:
		return "nil"
	case errors.Is(err, wire.ErrShort):
		return "short"
	case errors.Is(err, wire.ErrCorrupt):
		return "corrupt"
	default:
		return "other: " + err.Error()
	}
}

// checkDecodeSameAsReference decodes a discoverResult frame body both ways
// and reports any difference in advertisements or error class.
func checkDecodeSameAsReference(body []byte) error {
	want, wantErr := referenceDecodeDiscoverResult(wire.NewDecoder(body))
	dir, err := scanDiscoverResult(wire.NewDecoder(body))
	if errClass(err) != errClass(wantErr) {
		return fmt.Errorf("bulk error %v, reference error %v", err, wantErr)
	}
	if err == nil && !reflect.DeepEqual(dir.Decode(), want) {
		return errors.New("bulk decode differs from the reference field for field")
	}
	return nil
}

// TestDiscoverReplyFrameAndDecode checks both ends of the directory reply
// against their pre-refactor definitions, over seeded random directories on
// a 4-shard broker: the frame the broker encodes is byte-identical to
// encoding the merged sorted slice, and decoding it (whole, truncated at
// every offset, with trailing garbage) equals the per-advertisement loop.
func TestDiscoverReplyFrameAndDecode(t *testing.T) {
	for _, n := range []int{0, 1, 128, 4096} {
		b := bareBroker(t)
		advs := randomPeerAdvs(rand.New(rand.NewSource(int64(n)+1)), n)
		publishAll(b, advs)
		sorted := b.Advertisements()
		if len(sorted) != n {
			t.Fatalf("n=%d: directory holds %d", n, len(sorted))
		}
		frame := b.directoryReply()
		if !bytes.Equal(frame, referenceDiscoverFrame(sorted)) {
			t.Fatalf("n=%d: the broker's frame differs from the merged-slice encoding", n)
		}
		body := frame[1:]
		if err := checkDecodeSameAsReference(body); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		garbage := append(body[:len(body):len(body)], 0x00)
		if _, err := scanDiscoverResult(wire.NewDecoder(garbage)); !errors.Is(err, wire.ErrCorrupt) {
			t.Fatalf("n=%d: trailing byte accepted: %v", n, err)
		}
		if err := checkDecodeSameAsReference(garbage); err != nil {
			t.Fatalf("n=%d + trailing byte: %v", n, err)
		}
		step := 1
		if n > 128 {
			step = len(body)/256 + 1
		}
		for cut := 0; cut < len(body); cut += step {
			if err := checkDecodeSameAsReference(body[:cut]); err != nil {
				t.Fatalf("n=%d cut at %d of %d: %v", n, cut, len(body), err)
			}
		}
	}
}

// allocatedBytes reports the heap bytes allocated while fn runs.
func allocatedBytes(fn func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	fn()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// FuzzDecodeDiscoverResult feeds arbitrary frame bodies to the bulk decode:
// it must never panic, must agree with the reference decoder, and must not
// allocate more than a constant factor of its input whatever count the
// input claims (32x covers an advertisement of empty fields, 104 bytes from
// 22, and an attribute of two empty strings, 32 bytes from 2).
func FuzzDecodeDiscoverResult(f *testing.F) {
	for _, n := range []int{0, 1, 5} {
		frame := referenceDiscoverFrame(randomPeerAdvs(rand.New(rand.NewSource(int64(n))), n))
		f.Add(frame[1:])
		f.Add(frame[1 : len(frame)/2+1])
	}
	f.Add([]byte{0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x7F})                      // 2^63-1 advertisements, nothing else
	f.Add(append([]byte{0x01, 0x01, 0x10}, make([]byte, 16+3)...))                           // one adv, zero attrs
	f.Add(append(append([]byte{0x01, 0x01, 0x10}, make([]byte, 16+3)...), 0xFF, 0xFF, 0x03)) // attr count beyond the input
	f.Fuzz(func(t *testing.T, body []byte) {
		// The counter is process-wide and the fuzz worker's own goroutines
		// allocate now and then, which only ever adds: over the limit, look
		// again, and fail on the least of three readings.
		var err error
		limit, spent := uint64(32*len(body)+4096), ^uint64(0)
		for try := 0; try < 3 && spent > limit; try++ {
			spent = min(spent, allocatedBytes(func() {
				var dir jxta.Directory
				if dir, err = scanDiscoverResult(wire.NewDecoder(body)); err == nil {
					dir.Decode()
				}
			}))
		}
		if spent > limit {
			t.Fatalf("decoding %d bytes allocated %d (limit %d, err %v)", len(body), spent, limit, err)
		}
		if err := checkDecodeSameAsReference(body); err != nil {
			t.Fatal(err)
		}
	})
}

// TestDecodePieceReportBoundsCount is the regression test for the remote
// memory amplification: a 6-byte frame claiming 2^24 pieces used to grow a
// 16 M-entry slice before the decoder reported that the input was short.
func TestDecodePieceReportBoundsCount(t *testing.T) {
	e := wire.NewEncoder(16)
	e.Byte(mtPieceReport)
	e.String("")
	e.Int(1 << 24)
	hostile := e.Bytes()
	if len(hostile) != 6 {
		t.Fatalf("hostile frame is %d bytes, want 6", len(hostile))
	}
	var err error
	spent := allocatedBytes(func() {
		_, d, _ := wire.Tag(hostile)
		_, err = decodePieceReport(d)
	})
	if !errors.Is(err, wire.ErrCorrupt) {
		t.Fatalf("err = %v, want ErrCorrupt", err)
	}
	if spent > 4096 {
		t.Fatalf("rejecting a 6-byte frame allocated %d bytes", spent)
	}
	// A count the input could hold, but whose entries are cut short, stops
	// at the first short read.
	e.Reset()
	e.String("sc1")
	e.Int(2)
	e.Int(7)
	if _, err := decodePieceReport(wire.NewDecoder(append(e.Bytes(), 0x80))); !errors.Is(err, wire.ErrShort) {
		t.Fatalf("truncated entry: err = %v, want ErrShort", err)
	}
	// And the honest frame still decodes into its attribute values.
	_, d, _ := wire.Tag(pieceReportFrame("sc1", []int{0, 5, 7}, []string{"sc2", "sc3"}))
	out, err := decodePieceReport(d)
	if want := (pieceReport{Peer: "sc1", Pieces: "0,5,7", Unchoked: "sc2,sc3"}); err != nil || out != want {
		t.Fatalf("decoded %+v, %v; want %+v", out, err, want)
	}
}

// TestPieceReportRejectsWhatItsAttributesCannotHold: the broker comma-joins a
// report's indices and names into attributes every reader re-parses, so a
// negative index, one at or past transfer.MaxPieces, or a name holding a comma is a
// malformed frame — dropped without an ack, the directory untouched — while a
// well-formed report still reads back exactly as written.
func TestPieceReportRejectsWhatItsAttributesCannotHold(t *testing.T) {
	for _, in := range []struct {
		have     []int
		unchoked []string
	}{
		{have: []int{0, -1}},
		{have: []int{transfer.MaxPieces}},
		{have: []int{3}, unchoked: []string{"sc2", "sc3,sc4"}},
	} {
		_, d, _ := wire.Tag(pieceReportFrame("sc1", in.have, in.unchoked))
		if _, err := decodePieceReport(d); !errors.Is(err, wire.ErrCorrupt) {
			t.Errorf("decode(%+v): err = %v, want ErrCorrupt", in, err)
		}
	}
	_, d, _ := wire.Tag(pieceReportFrame("sc1", []int{0, transfer.MaxPieces - 1}, []string{"sc2"}))
	if _, err := decodePieceReport(d); err != nil {
		t.Errorf("the last valid index is rejected: %v", err)
	}

	dep := deployShards(t, 2, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	var advs []jxta.Advertisement
	dep.net.Run(func() {
		dep.startAll(t)
		c := dep.clients["sc1"]
		if err := c.ReportPieces([]int{0, 5, 7}, []string{"sc2"}); err != nil {
			t.Errorf("well-formed report: %v", err)
		}
		if err := c.ReportPieces([]int{1}, []string{"sc2,sc1"}); err == nil {
			t.Error("a report naming \"sc2,sc1\" was acknowledged")
		}
		if err := c.ReportPieces([]int{transfer.MaxPieces}, nil); err == nil {
			t.Errorf("a report of piece %d was acknowledged", transfer.MaxPieces)
		}
		advs, _ = c.Discover()
	})
	for _, adv := range advs {
		if adv.Name == "sc1" {
			if got := adv.Attr(jxta.AttrPieces) + " / " + adv.Attr(jxta.AttrUnchoked); got != "0,5,7 / sc2" {
				t.Fatalf("sc1 advertises %q, want the well-formed report \"0,5,7 / sc2\"", got)
			}
			return
		}
	}
	t.Fatal("sc1 is not in the directory")
}

// TestCachedDirectoryUnchangedByNextDiscover: the client's degraded-selection
// cache now owns the decoded slice Discover also returns, so a later
// Discover must replace it, never write it.
func TestCachedDirectoryUnchangedByNextDiscover(t *testing.T) {
	d := deployShards(t, 2, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile(), "sc3": clientProfile()})
	var first, second, want []jxta.Advertisement
	d.net.Run(func() {
		d.startAll(t)
		c := d.clients["sc1"]
		var err error
		if first, err = c.Discover(); err != nil {
			t.Errorf("Discover: %v", err)
			return
		}
		want = append([]jxta.Advertisement(nil), first...)
		for i := range want {
			want[i].Attrs = append([]jxta.Attr(nil), first[i].Attrs...)
		}
		if got := c.res.snapshotDir(); len(got) == 0 || &got[0] != &first[0] {
			t.Error("the cached directory is not the slice Discover returned")
		}
		d.clients["sc2"].Stop()
		d.broker.Restart()
		if err := d.clients["sc3"].ReportStats(); err != nil { // resurrects sc3 alone
			t.Errorf("ReportStats: %v", err)
		}
		if second, err = c.Discover(); err != nil {
			t.Errorf("second Discover: %v", err)
		}
	})
	if len(first) != 3 || len(second) != 1 || second[0].Name != "sc3" {
		t.Fatalf("first = %d advertisements, second = %+v", len(first), second)
	}
	if !reflect.DeepEqual(first, want) {
		t.Fatalf("the first directory changed under the second Discover:\n got %+v\nwant %+v", first, want)
	}
}

// underRace reports whether the race detector is on, by a behaviour it
// changes on purpose: a sync.Pool drops what it was given at random. Under
// it, slices.Grow also allocates its scratch slice, so the merge's counts and
// bytes are not exact there.
func underRace() bool {
	var p sync.Pool
	for i := 0; i < 64; i++ {
		p.Put(&i)
		if p.Get() == nil {
			return true
		}
	}
	return false
}

// TestDiscoverAllocBudgets gates what the directory refresh costs in
// allocations on each side, pipe, network and request decoding aside, for
// the 128-peer directory of the faults benchmark on 4 shards. Exact small
// counts: the next copy or per-field string shows up here, not in a profile.
// The broker answers a whole-kind discover at an unchanged directory with the
// reply it encoded for that version, allocating nothing (a hit), and so it
// does after a renewal, which changes nothing a reader sees. After a change
// a reader sees it merges again into the buffers it keeps and pays the new
// reply alone (a miss): about 10 KB, detached from the encoder the merge
// keeps, and so does a registration that grew the directory. No pool is
// involved, so a collection cannot make a miss regrow an encoder.
func TestDiscoverAllocBudgets(t *testing.T) {
	b := bareBroker(t)
	advs := randomPeerAdvs(rand.New(rand.NewSource(128)), 128)
	publishAll(b, advs)
	var reply []byte
	hit := func() { reply = b.directoryReply() }
	if allocs := testing.AllocsPerRun(50, hit); allocs != 0 {
		t.Errorf("broker side, hit: %v allocations to reply to a 128-peer discover on 4 shards, budget 0", allocs)
	}
	lease := b.host.Now().Add(time.Hour)
	renew := func() {
		lease = lease.Add(time.Second)
		a := advs[0]
		a.Expires = lease
		b.shardOf(a.Name).Publish(a)
		reply = b.directoryReply()
	}
	if allocs := testing.AllocsPerRun(50, renew); allocs != 0 {
		t.Errorf("broker side, renewal: %v allocations to renew one lease and reply to a 128-peer discover on 4 shards, budget 0", allocs)
	}
	// The change is an attribute, flipped between two values.
	flips := []jxta.Advertisement{advs[0].WithAttr("flip", "a"), advs[0].WithAttr("flip", "b")}
	miss := func() {
		flips[0], flips[1] = flips[1], flips[0]
		publishAll(b, flips[:1])
		reply = b.directoryReply()
	}
	const misses = 50
	allocs := testing.AllocsPerRun(misses, miss)
	perMiss := allocatedBytes(func() {
		for i := 0; i < misses; i++ {
			miss()
		}
	}) / misses
	if allocs > 1 && !underRace() {
		t.Errorf("broker side, miss: %v allocations to change one attribute and reply to a 128-peer discover on 4 shards, budget 1", allocs)
	}
	if perMiss > 11<<10 && !underRace() {
		t.Errorf("broker side, miss: %d bytes to change one attribute and reply to a 128-peer discover on 4 shards, budget 11 KiB", perMiss)
	}
	// A registration that grows the directory costs the re-encode one
	// allocation too, averaged over a run of them: the merge keeps its
	// encoder, and each reply is detached from it at its own size.
	var grown, mallocs uint64
	for _, a := range randomPeerAdvs(rand.New(rand.NewSource(129)), 128+misses)[128:] {
		publishAll(b, []jxta.Advertisement{a})
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		reply = b.directoryReply()
		runtime.ReadMemStats(&after)
		grown, mallocs = grown+1, mallocs+after.Mallocs-before.Mallocs
	}
	if perGrowth := float64(mallocs) / float64(grown); perGrowth > 1.5 && !underRace() {
		t.Errorf("broker side, growth: %.2f allocations to reply to a discover after a registration grew the directory, budget 1", perGrowth)
	}
	var got []jxta.Advertisement
	decode := func() {
		_, dec, err := wire.Tag(reply)
		if err != nil {
			t.Fatal(err)
		}
		dir, err := scanDiscoverResult(dec)
		if err != nil {
			t.Fatal(err)
		}
		got = dir.Decode()
	}
	if allocs := testing.AllocsPerRun(50, decode); allocs > 4 {
		t.Errorf("client side: %v allocations to decode a 128-peer reply, budget 4", allocs)
	}
	if len(got) != 128+misses {
		t.Fatalf("decoded %d advertisements", len(got))
	}
}

// TestDirectoryMergeReused: the whole-kind merge is kept while every shard
// still returns the stamp it was merged under, and only then. A merge drops
// the discover reply kept for the last one, so the reply tells them apart:
// two calls with nothing published between them get the same reply; after
// each kind of directory change it is a new one, and the directory equals a
// merge made from nothing; and neither renewals nor a sweep that finds
// nothing left to evict — the read that first saw the expiry already settled
// it — are a change. Readers
// run beside the changes (the race detector's part) and must always see a
// sorted directory without duplicates.
func TestDirectoryMergeReused(t *testing.T) {
	n := simnet.New(21)
	host := n.MustAddNode("broker0", simnet.DefaultProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: 4, CacheLimit: 8192, AdvTTL: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	advs := randomPeerAdvs(rand.New(rand.NewSource(4)), 200)
	late, extra := advs[100:199], advs[199] // advs[:100] are never renewed
	publish := func(advs ...jxta.Advertisement) {
		for _, a := range advs {
			b.publish(b.shardOf(a.Name), a)
		}
	}

	// Readers race the changes and the checks alike: a reader that read the
	// stamps before a change and the shards' answers after it leaves a merge
	// the next call finds stale and makes again, under the lock that orders
	// every merge, so the identity checks below hold beside them.
	stop := make(chan struct{})
	var readers sync.WaitGroup
	defer func() {
		close(stop)
		readers.Wait()
	}()
	for r := 0; r < 3; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				dir := b.Advertisements()
				for i := 1; i < len(dir); i++ {
					if dir[i-1].Name >= dir[i].Name {
						t.Errorf("a reader saw %s before %s", dir[i-1].Name, dir[i].Name)
						return
					}
				}
			}
		}()
	}

	var prev []byte // the last step's reply
	unchanged := func(step string) {
		t.Helper()
		if got := b.directoryReply(); &got[0] != &prev[0] {
			t.Fatalf("after %s: merged again though no live set changed", step)
		}
	}
	changed := func(step string, wantLen int) {
		t.Helper()
		var scratch []jxta.Advertisement
		for _, sh := range b.shards {
			scratch = append(scratch, sh.Query(jxta.AdvPeer, "")...)
		}
		slices.SortFunc(scratch, byName)
		got := b.Advertisements()
		if len(got) != wantLen || !reflect.DeepEqual(got, scratch) {
			t.Fatalf("after %s: %d advertisements, a merge from nothing has %d (want %d), or they differ", step, len(got), len(scratch), wantLen)
		}
		reply := b.directoryReply()
		if prev != nil && &reply[0] == &prev[0] {
			t.Fatalf("after %s: the directory is still the previous merge", step)
		}
		prev = reply
		unchanged(step + " and a read")
	}
	n.Run(func() {
		publish(advs[:199]...)
		changed("publish", 199)
		publish(extra)
		changed("one more publish", 200)
		host.Sleep(30 * time.Second)
		publish(late...)
		unchanged("renewals")
		short := extra
		short.Expires = host.Now().Add(time.Second)
		b.shardOf(extra.Name).Publish(short)
		changed("a shortened lease", 200)
		host.Sleep(time.Second)
		changed("the shortened lease's expiry", 199)
		host.Sleep(30 * time.Second) // early's leases are over, late's have 29 s left
		changed("lease expiry", 99)
		for _, sh := range b.shards {
			if dropped := sh.Sweep(host.Now()); dropped != 0 {
				t.Errorf("a sweep after the expiry was read evicted %d", dropped)
			}
		}
		unchanged("Sweep")
		b.Restart()
		changed("Restart", 0)
		publish(late...) // the very advertisements the last merge held
		changed("publish after Restart", 99)
	})
}
