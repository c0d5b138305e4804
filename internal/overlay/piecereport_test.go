package overlay

import (
	"bytes"
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"

	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/transfer"
	"peerlab/internal/wire"
)

// rawPieceReport spells a piece report frame out field by field, so the
// oracle below does not lean on the encoder the broker's own tests use:
// the reporter, the index count and indices, the name count and names, then
// what trail holds.
func rawPieceReport(peer string, have []int, haveCount int, names []string, nameCount uint64, trail []byte) []byte {
	e := wire.NewEncoder(64)
	e.Byte(mtPieceReport)
	e.String(peer)
	e.Int(haveCount)
	for _, p := range have {
		e.Int(p)
	}
	e.Uint64(nameCount)
	for _, name := range names {
		e.String(name)
	}
	return append(e.Bytes(), trail...)
}

// refSetAttr is the reference attribute setter: replace the key in place, or
// append it.
func refSetAttr(attrs []jxta.Attr, key, value string) []jxta.Attr {
	out := slices.Clone(attrs)
	for i := range out {
		if out[i].Key == key {
			out[i].Value = value
			return out
		}
	}
	return append(out, jxta.Attr{Key: key, Value: value})
}

// checkPieceReportProgram sends a seeded run of piece reports to a broker
// from a probe node, one frame per conn. A well-formed report — 0 to
// transfer.MaxPieces indices, repeats allowed, and 0 to 8 names, the empty
// one among them — must be acknowledged and leave the reporter's entry with
// the attributes it had, then pieces and unchoked set to the indices and the
// names comma-joined, in that order. A malformed one — an index outside
// [0, MaxPieces), a name holding a comma, a count the frame cannot hold, a
// truncated entry, a trailing byte — must get no ack and leave the discover
// reply byte for byte as it was.
func checkPieceReportProgram(seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(seed)
	host := net.MustAddNode("broker0", instantProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: 2, CacheLimit: 64, AdvTTL: leaseProgramTTL})
	if err != nil {
		return err
	}
	mux, rpc, err := newProbe(net, b)
	if err != nil {
		return err
	}
	names := []string{"p1", "p2", "p3", "p10", "sc7", "", "a-much-longer-peer-name.planetlab.example.org"}
	var step int
	var what string
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d, step %d (%s): %s", seed, step, what, fmt.Sprintf(format, args...))
	}
	var failure error
	net.Run(func() {
		defer b.Close()
		defer mux.Close()
		for _, name := range names[:4] {
			adv := jxta.Advertisement{Name: name}.WithAttr(jxta.AttrCPUScore, "1.5")
			if _, err := rpc(wire.Frame(mtRegister, register{Adv: adv, Stats: statsReport{Peer: name}}.encodeTo)); err != nil {
				failure = fmt.Errorf("register %s: %v", name, err)
				return
			}
		}
		for step = 1; step <= steps && failure == nil; step++ {
			peer := names[rng.Intn(5)] // sc7 is not registered: its entry is rebuilt
			if rng.Intn(8) == 0 {
				peer = "new" + strconv.Itoa(rng.Intn(4))
			}
			var have []int
			count := rng.Intn(6)
			switch rng.Intn(10) {
			case 0:
				count = transfer.MaxPieces
			case 1:
				count = rng.Intn(transfer.MaxPieces + 1)
			}
			for range count {
				have = append(have, rng.Intn(transfer.MaxPieces))
			}
			var unchoked []string
			for u := rng.Intn(9); u > 0; u-- {
				unchoked = append(unchoked, names[rng.Intn(len(names))])
			}
			haveCount, nameCount, trail := len(have), uint64(len(unchoked)), []byte(nil)
			bad := ""
			switch rng.Intn(12) {
			case 0:
				have = append(have, -1-rng.Intn(3))
				haveCount, bad = len(have), "negative index"
			case 1:
				have = append(have, transfer.MaxPieces+rng.Intn(1<<20))
				haveCount, bad = len(have), "index past MaxPieces"
			case 2:
				unchoked = append(unchoked, "p1,p2")
				nameCount, bad = uint64(len(unchoked)), "name with a comma"
			case 3:
				haveCount, bad = 1<<24, "index count past the frame"
			case 4:
				nameCount, bad = 1<<40, "name count past the frame"
			case 5:
				trail, bad = []byte{0}, "trailing byte"
			}
			frame := rawPieceReport(peer, have, haveCount, unchoked, nameCount, trail)
			if bad == "" && rng.Intn(4) == 0 && len(frame) > 2 {
				frame, bad = frame[:1+rng.Intn(len(frame)-2)], "truncated"
			}
			what = fmt.Sprintf("report from %q of %d indices and %d names, %s", peer, len(have), len(unchoked), cmp.Or(bad, "well formed"))

			sh := b.shardOf(peer)
			before, _ := sh.Lookup(peer)
			dirBefore, err := rpc(discoverFrame)
			if err != nil {
				failure = fail("discover: %v", err)
				return
			}
			reply, err := rpc(frame)
			if bad != "" {
				if err == nil {
					failure = fail("acknowledged with % x", reply)
					return
				}
				dirAfter, err := rpc(discoverFrame)
				if err != nil || !bytes.Equal(dirAfter, dirBefore) {
					failure = fail("the directory changed (%v)", err)
				}
				continue
			}
			if err != nil || !bytes.Equal(reply, ackFrame) {
				failure = fail("reply % x, %v", reply, err)
				return
			}
			digits := make([]string, len(have))
			for i, p := range have {
				digits[i] = strconv.Itoa(p)
			}
			want := refSetAttr(before.Attrs, jxta.AttrPieces, strings.Join(digits, ","))
			want = refSetAttr(want, jxta.AttrUnchoked, strings.Join(unchoked, ","))
			after, ok := sh.Lookup(peer)
			if !ok {
				failure = fail("the reporter has no entry")
				return
			}
			if !slices.Equal(after.Attrs, want) {
				failure = fail("stored %q, reference %q", after.Attrs, want)
				return
			}
		}
	})
	return failure
}

// TestPieceReportAttributesMatchReference is the oracle for the broker's
// piece-report path, from frame to stored attributes.
func TestPieceReportAttributesMatchReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		if err := checkPieceReportProgram(int64(seed), 250); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPieceReportAllocBudget: on a warm broker a piece report costs one
// string holding its reporter's name and both attribute values, and one
// copy of the attributes; publishing the renewed entry costs nothing more.
func TestPieceReportAllocBudget(t *testing.T) {
	b := bareBroker(t)
	publishAll(b, []jxta.Advertisement{jxta.Advertisement{Kind: jxta.AdvPeer, Name: "p1"}.WithAttr(jxta.AttrCPUScore, "1.5")})
	frames := [][]byte{
		pieceReportFrame("p1", []int{0, 3, 7, 11, 15}, []string{"p2", "p10", "sc7"}),
		pieceReportFrame("p1", []int{0, 3, 7, 11, 12, 15}, []string{"p2", "p10"}),
	}
	report := func() {
		frames[0], frames[1] = frames[1], frames[0]
		_, d, _ := wire.Tag(frames[0])
		if handle(pipe.Conn{}, d, decodePieceReport, b.handlePieceReport) == nil {
			t.Fatal("the report was refused")
		}
	}
	if allocs := testing.AllocsPerRun(50, report); allocs > 2 {
		t.Errorf("a piece report: %v allocations, budget 2", allocs)
	}
	adv, _ := b.shardOf("p1").Lookup("p1")
	sh := b.shardOf("p1")
	if allocs := testing.AllocsPerRun(50, func() { b.publish(sh, adv) }); allocs != 0 {
		t.Errorf("publishing the reported entry: %v allocations, budget 0", allocs)
	}
	want := map[string]string{"0,3,7,11,15": "p2,p10,sc7", "0,3,7,11,12,15": "p2,p10"}
	if pieces := adv.Attr(jxta.AttrPieces); want[pieces] != adv.Attr(jxta.AttrUnchoked) || adv.Attr(jxta.AttrCPUScore) != "1.5" {
		t.Errorf("p1 advertises %q", adv.Attrs)
	}
}
