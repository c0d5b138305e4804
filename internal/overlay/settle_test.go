package overlay

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/simnet"
)

// settleStep is what one step of a settling program shows a reader: the
// reply to its request, if it sent one, every shard's cache stamp and the
// registry's version after it.
type settleStep struct {
	what    string
	reply   []byte
	stamps  []uint64
	version uint64
}

// runSettlingProgram runs a seeded program of requests sent over the wire to
// a broker of the given shard count and a small cache limit — registrations,
// heartbeats, piece reports, discovers, economic and
// same-priority selections with exclusions — mixed with clock advances
// (arbitrary ones, and ones onto a lease's expiry instant exactly or one
// nanosecond short of it) and restarts, and returns what every step showed.
// When settle is non-nil, each shard cache is swept at the current instant
// with probability ½ before every step and on the way through every clock
// advance; those draws come from settle alone, so the program draws the same
// steps either way. swept counts the entries the sweeps removed.
func runSettlingProgram(seed int64, shards, steps int, settle *rand.Rand) (trace []settleStep, swept int, err error) {
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(seed)
	host := net.MustAddNode("broker0", instantProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: shards, CacheLimit: 3, AdvTTL: leaseProgramTTL})
	if err != nil {
		return nil, 0, err
	}
	mux, rpc, err := newProbe(net, b)
	if err != nil {
		return nil, 0, err
	}
	names := make([]string, 8)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	some := func() []string { // a random subset of the names, in order
		var out []string
		for _, name := range names {
			if rng.Intn(3) == 0 {
				out = append(out, name)
			}
		}
		return out
	}
	maybeSweep := func() {
		if settle == nil {
			return
		}
		for _, sh := range b.shards {
			if settle.Intn(2) == 0 {
				swept += sh.Sweep(host.Now())
			}
		}
	}
	// advance moves the clock by d in two legs, the sweeps getting their
	// chance between them and after: a sweep at the midpoint settles leases
	// no reader has settled yet.
	advance := func(d time.Duration) {
		leg := time.Duration(rng.Int63n(int64(d) + 1))
		host.Sleep(leg)
		maybeSweep()
		host.Sleep(d - leg)
		maybeSweep()
	}
	net.Run(func() {
		defer b.Close()
		defer mux.Close()
		for step := 1; step <= steps && err == nil; step++ {
			maybeSweep()
			var s settleStep
			var req []byte
			name := names[rng.Intn(len(names))]
			switch op := rng.Intn(16); {
			case op < 3:
				s.what = "register " + name
				adv := jxta.Advertisement{Name: name, Addr: name + "/" + ServiceTransfer}
				adv = adv.WithAttr(jxta.AttrCPUScore, fmt.Sprint(1+rng.Intn(4)))
				req = frame(mtRegister, register{Adv: adv, Stats: statsReport{Peer: name, QueueLen: rng.Intn(3)}}.encodeTo)
			case op < 6:
				s.what = "heartbeat " + name
				req = frame(mtStatsReport, statsReport{Peer: name, QueueLen: rng.Intn(3), CPUScore: float64(rng.Intn(3))}.encodeTo)
			case op < 7:
				s.what = "piece report " + name
				var have []int
				for p := 0; p < 8; p++ {
					if rng.Intn(2) == 0 {
						have = append(have, p)
					}
				}
				req = frame(mtPieceReport, pieceReport{Peer: name, Have: have, Unchoked: some()}.encodeTo)
			case op < 9:
				s.what = "discover"
				req = frame(mtDiscover, discover{Kind: jxta.AdvPeer}.encodeTo)
			case op < 11:
				model := []string{"economic", "same-priority"}[rng.Intn(2)]
				s.what = "select " + model
				req = frame(mtSelect, selectReq{Model: model, Kind: byte(core.KindFileTransfer), SizeBytes: 1 + rng.Intn(1<<20),
					MaxResults: rng.Intn(4), Exclude: some()}.encodeTo)
			case op < 12:
				d := time.Duration(1 + rng.Int63n(int64(30*time.Second)))
				s.what = fmt.Sprintf("sleep %v", d)
				advance(d)
			case op < 15:
				adv, ok := b.shardOf(name).Lookup(jxta.NewID("peer", name))
				if !ok {
					s.what = "nothing"
					break
				}
				d := adv.Expires.Sub(host.Now())
				if rng.Intn(2) == 0 {
					s.what = "sleep onto the expiry of " + name
				} else {
					s.what, d = "sleep to one nanosecond before the expiry of "+name, d-time.Nanosecond
				}
				advance(d)
			default:
				s.what = "restart"
				b.Restart()
			}
			if req != nil {
				if s.reply, err = rpc(req); err != nil {
					err = fmt.Errorf("step %d (%s): %w", step, s.what, err)
					return
				}
			}
			for _, sh := range b.shards {
				s.stamps = append(s.stamps, sh.Stamp())
			}
			s.version = b.registry.Version()
			trace = append(trace, s)
		}
	})
	return trace, swept, err
}

// TestSettlingIsInvisible pins the directory's one expiry rule: every read
// and every write settles expired leases first, so sweeping the shard caches
// at any instant beforehand changes nothing a reader can see. Twin brokers run
// one seeded program, the second with its caches swept at random instants;
// every reply must be byte-equal, and every shard's cache stamp and the
// registry's version equal, after every step.
func TestSettlingIsInvisible(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	swept := 0
	for seed := int64(1); seed <= int64(seeds); seed++ {
		for _, shards := range []int{1, 3} {
			plain, _, err := runSettlingProgram(seed, shards, 300, nil)
			if err != nil {
				t.Fatal(err)
			}
			settled, n, err := runSettlingProgram(seed, shards, 300, rand.New(rand.NewSource(-seed)))
			if err != nil {
				t.Fatal(err)
			}
			swept += n
			if len(settled) != len(plain) {
				t.Fatalf("seed %d, %d shards: %d steps without sweeps, %d with", seed, shards, len(plain), len(settled))
			}
			for i, p := range plain {
				s := settled[i]
				switch {
				case s.what != p.what:
					t.Fatalf("seed %d, %d shards, step %d: the programs parted: %q, then %q", seed, shards, i+1, p.what, s.what)
				case !bytes.Equal(s.reply, p.reply):
					t.Fatalf("seed %d, %d shards, step %d (%s): sweeping moved the reply", seed, shards, i+1, p.what)
				case !slices.Equal(s.stamps, p.stamps):
					t.Fatalf("seed %d, %d shards, step %d (%s): cache stamps %v without sweeps, %v with", seed, shards, i+1, p.what, p.stamps, s.stamps)
				case s.version != p.version:
					t.Fatalf("seed %d, %d shards, step %d (%s): registry version %d without sweeps, %d with", seed, shards, i+1, p.what, p.version, s.version)
				}
			}
		}
	}
	if swept == 0 {
		t.Fatal("no sweep removed an entry: the twins never differed in when they settled")
	}
}
