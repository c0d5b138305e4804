package overlay

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/wire"
)

// instantProfile is a node whose messages take no virtual time: no latency,
// and a link so fast that serializing any frame rounds to zero. A request and
// its reply then happen at one instant, so the reply can be compared with
// what the directory holds at that instant, expiry instants included.
func instantProfile() simnet.Profile {
	return simnet.Profile{Bandwidth: 1e18, CPUScore: 1}
}

// newProbe binds a client endpoint on a new instant node of net and returns
// its mux and an rpc that sends one request to b on a fresh conn and returns
// the reply.
func newProbe(net *simnet.Network, b *Broker) (*pipe.Mux, func([]byte) ([]byte, error), error) {
	probe := net.MustAddNode("probe", instantProfile())
	ep, err := probe.Endpoint(ServiceClient)
	if err != nil {
		return nil, nil, err
	}
	mux := pipe.NewMux(probe, ep, pipe.Options{})
	return mux, func(req []byte) ([]byte, error) {
		conn, err := mux.Dial(b.Addr())
		if err != nil {
			return nil, err
		}
		defer conn.Close()
		if err := conn.Send(req); err != nil {
			return nil, err
		}
		msg, err := conn.Recv()
		if err != nil {
			return nil, err
		}
		return msg.Payload, nil
	}, nil
}

// checkReplyProgram runs a seeded program of registrations, heartbeats
// (lease renewals, and resurrections of lapsed or evicted peers), clock
// advances — arbitrary ones and ones onto an expiry instant exactly —
// sweeps, evictions at a small cache limit and restarts against a broker of
// the given shard count, sending every request over the wire from a probe
// node. After every step it sends two discovers: the reply must equal a
// fresh encode of Broker.Advertisements at that instant, and the second
// must equal the first. A reply kept across a change of the directory fails
// here.
func checkReplyProgram(seed int64, shards, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	net := simnet.New(seed)
	host := net.MustAddNode("broker0", instantProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: shards, CacheLimit: 3, AdvTTL: leaseProgramTTL})
	if err != nil {
		return err
	}
	mux, rpc, err := newProbe(net, b)
	if err != nil {
		return err
	}
	names := make([]string, 12)
	for i := range names {
		names[i] = fmt.Sprintf("p%d", i)
	}
	var step int
	var what string
	fail := func(format string, args ...any) error {
		return fmt.Errorf("seed %d, %d shards, step %d (%s): %s", seed, shards, step, what, fmt.Sprintf(format, args...))
	}
	var failure error
	net.Run(func() {
		defer b.Close()
		defer mux.Close()
		for step = 1; step <= steps && failure == nil; step++ {
			now := host.Now()
			name := names[rng.Intn(len(names))]
			switch op := rng.Intn(12); {
			case op < 3:
				what = "register " + name
				adv := jxta.Advertisement{Name: name, Addr: name + "/" + ServiceTransfer}
				adv = adv.WithAttr(jxta.AttrCPUScore, fmt.Sprint(1+rng.Intn(4)))
				reply, err := rpc(wire.Frame(mtRegister, register{Adv: adv, Stats: statsReport{Peer: name, QueueLen: rng.Intn(3)}}.encodeTo))
				if err != nil {
					failure = fail("%v", err)
					return
				}
				if _, d, err := wire.Tag(reply); err != nil {
					failure = fail("ack: %v", err)
					return
				} else if ack, err := decodeRegisterAck(d); err != nil || !ack.OK {
					failure = fail("ack %+v, %v", ack, err)
					return
				}
			case op < 7:
				what = "heartbeat " + name
				reply, err := rpc(wire.Frame(mtStatsReport, statsReport{Peer: name, QueueLen: rng.Intn(3), CPUScore: float64(rng.Intn(3))}.encodeTo))
				if err != nil || !bytes.Equal(reply, ackFrame) {
					failure = fail("reply % x, %v", reply, err)
					return
				}
			case op < 8:
				d := time.Duration(1 + rng.Int63n(int64(30*time.Second)))
				what = fmt.Sprintf("sleep %v", d)
				host.Sleep(d)
			case op < 10:
				adv, ok := b.shardOf(name).Lookup(name)
				if !ok {
					what = "nothing"
					break
				}
				what = "sleep onto the expiry of " + name
				host.Sleep(adv.Expires.Sub(now))
			case op < 11:
				what = "sweep"
				for _, sh := range b.shards {
					sh.Sweep(now)
				}
			default:
				what = "restart"
				b.Restart()
			}
			first, err := rpc(discoverFrame)
			if err != nil {
				failure = fail("discover: %v", err)
				return
			}
			again, err := rpc(discoverFrame)
			if err != nil {
				failure = fail("second discover: %v", err)
				return
			}
			fresh := wire.NewEncoder(0)
			encodeDiscoverResult(fresh, b.Advertisements())
			if !bytes.Equal(first, fresh.Bytes()) {
				failure = fail("discover replied %d bytes, a fresh encode at this instant is %d, or they differ", len(first), fresh.Len())
				return
			}
			if !bytes.Equal(again, first) {
				failure = fail("two discovers with nothing between them replied differently")
				return
			}
		}
	})
	return failure
}

// TestDirectoryReplyMatchesFreshEncode is the oracle for the broker's
// discover reply: seeded programs on one and four shards, the
// reply compared with a fresh encode of the directory after every step.
func TestDirectoryReplyMatchesFreshEncode(t *testing.T) {
	seeds := 12
	if testing.Short() {
		seeds = 4
	}
	for seed := 1; seed <= seeds; seed++ {
		for _, shards := range []int{1, 4} {
			if err := checkReplyProgram(int64(seed), shards, 300); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestCachedReplyUnchangedByHeartbeatRound: a heartbeat round's reports
// reach the broker before its discovers, so every Resilient client of the
// round is sent, by reference, the one reply the broker encoded for that
// directory version, and scans and keeps it. Every client then reads its
// directory from it; the broker's reply must still be byte for byte the one
// it encoded, and still the reply it sends.
func TestCachedReplyUnchangedByHeartbeatRound(t *testing.T) {
	profiles := make(map[string]simnet.Profile)
	for i := 0; i < 8; i++ {
		profiles[fmt.Sprintf("sc%d", i)] = clientProfile()
	}
	d := deployShards(t, 4, profiles)
	for _, c := range d.clients {
		c.cfg.Resilient = true
	}
	d.net.Run(func() {
		d.startAll(t)
		join := d.nodes["broker0"].NewQueue()
		for name, c := range d.clients {
			c.host.Go(func() {
				if err := c.ReportStats(); err != nil {
					t.Errorf("%s: ReportStats: %v", name, err)
				}
				join.Push(nil)
			})
		}
		for range d.clients {
			join.Pop()
		}
		reply := d.broker.directoryReply()
		saved := bytes.Clone(reply)
		want := d.broker.Advertisements()
		for name, c := range d.clients {
			if got := c.res.snapshotDir(); len(got) != len(profiles) || !sameAdvs(got, want) {
				t.Errorf("%s kept a directory other than the round's last: %d entries", name, len(got))
			}
		}
		if again := d.broker.directoryReply(); &again[0] != &reply[0] {
			t.Error("the broker encoded its reply again with nothing changed")
		}
		fresh := wire.NewEncoder(0)
		encodeDiscoverResult(fresh, want)
		if !bytes.Equal(reply, saved) || !bytes.Equal(reply, fresh.Bytes()) {
			t.Error("the broker's reply changed while its clients kept and read it")
		}
	})
}
