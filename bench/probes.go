package main

import (
	"fmt"
	"runtime"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/experiments"
	"peerlab/internal/jxta"
	"peerlab/internal/overlay"
	"peerlab/internal/pipe"
	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
	"peerlab/internal/stats"
	"peerlab/internal/transfer"
	"peerlab/internal/vtime"
	"peerlab/internal/wire"
	"peerlab/internal/workload"
)

// The layer probes time calls into each layer's public functions from
// outside, each at the operating point of the workload it should predict
// (README, "which end-to-end metric each layer metric should move"). A
// probe builds its state untimed, then times one batch of operations; the
// reported value is the median over the repetitions, per operation. _ns,
// _us and _ms are host time; allocs and bytes come from MemStats deltas
// across the timed batch, or from the live heap where the name says what a
// resident object costs.

// probeMetrics declares every probe metric, in report order.
var probeMetrics = []layerMetric{
	{Name: "vtime.switch_ns", Unit: "ns"},
	{Name: "vtime.allocs_per_switch", Unit: "count"},
	{Name: "vtime.spawn_ns", Unit: "ns"},
	{Name: "vtime.timer_ns", Unit: "ns"},
	{Name: "vtime.cancel_ns", Unit: "ns"},
	{Name: "vtime.queue_ns", Unit: "ns"},
	{Name: "simnet.send_ns", Unit: "ns"},
	{Name: "simnet.allocs_per_msg", Unit: "count"},
	{Name: "simnet.node_bytes", Unit: "B"},
	{Name: "pipe.msg_ns.w1", Unit: "ns"},
	{Name: "pipe.msg_ns.w4", Unit: "ns"},
	{Name: "pipe.allocs_per_msg", Unit: "count"},
	{Name: "pipe.dial_ns", Unit: "ns"},
	{Name: "pipe.retransmits", Unit: "count"},
	{Name: "wire.encode_ns", Unit: "ns"},
	{Name: "wire.decode_ns", Unit: "ns"},
	{Name: "wire.allocs_per_msg", Unit: "count"},
	{Name: "jxta.publish_ns", Unit: "ns"},
	{Name: "jxta.query_all_ns", Unit: "ns"},
	{Name: "jxta.lookup_ns", Unit: "ns"},
	{Name: "jxta.sweep_ns", Unit: "ns"},
	{Name: "jxta.adv_bytes", Unit: "B"},
	{Name: "stats.record_ns", Unit: "ns"},
	{Name: "stats.snapshot_ns", Unit: "ns"},
	{Name: "stats.union_ns", Unit: "ns"},
	{Name: "stats.peer_bytes", Unit: "B"},
	{Name: "core.rank_ns.economic", Unit: "ns"},
	{Name: "core.rank_ns.same-priority", Unit: "ns"},
	{Name: "core.rank_ns.quick-peer", Unit: "ns"},
	{Name: "core.allocs_per_select", Unit: "count"},
	{Name: "overlay.boot_us", Unit: "us"},
	{Name: "overlay.boot_allocs", Unit: "count"},
	{Name: "overlay.boot_bytes", Unit: "B"},
	{Name: "overlay.ctl_rpcs_per_peer", Unit: "count"},
	{Name: "overlay.select_cold_us", Unit: "us"},
	{Name: "overlay.select_warm_us", Unit: "us"},
	{Name: "overlay.select_dirty_us", Unit: "us"},
	{Name: "overlay.discover_us", Unit: "us"},
	{Name: "transfer.part_us", Unit: "us"},
	{Name: "transfer.allocs_per_part", Unit: "count"},
	{Name: "workload.flows_ns", Unit: "ns"},
	{Name: "scenario.deploy_us", Unit: "us"},
	{Name: "scenario.deploy_bytes", Unit: "B"},
	{Name: "scenario.churn_us", Unit: "us"},
	{Name: "experiments.cell_ms", Unit: "ms"},
	{Name: speedupName, Unit: "ratio", Higher: true},
}

// speedupName is reported as n/a (stored as 0) on a one-core host.
const speedupName = "experiments.speedup_w2"

const (
	probeReps      = 7 // repetitions of a probe; the median is reported
	probeRepsHeavy = 3 // for probes whose one repetition takes a second
)

// probeResult is what the probes child reports.
type probeResult struct {
	Metrics map[string]float64 `json:"metrics"`
	Spans   []span             `json:"spans"`
}

// prober runs probes and collects their metrics; every timed batch is a
// span.
type prober struct {
	tr      tracer
	metrics map[string]float64
	seed    int64
	reps    int
	heavy   int
}

// cost is a timed batch's per-operation cost, each the median over the
// repetitions.
type cost struct{ ns, allocs, bytes float64 }

func runProbes(seed int64, quick bool) probeResult {
	p := &prober{metrics: make(map[string]float64), seed: seed, reps: probeReps, heavy: probeRepsHeavy}
	if quick {
		p.reps, p.heavy = 3, 1
	}
	p.vtimeProbes()
	p.simnetProbes()
	p.pipeProbes()
	p.wireProbes()
	p.jxtaProbes()
	p.statsProbes()
	p.coreProbes()
	p.overlayProbes()
	p.transferProbes()
	p.workloadProbes()
	p.scenarioProbes()
	p.experimentsProbes()
	return probeResult{Metrics: p.metrics, Spans: p.tr.spans}
}

// time repeats a probe reps times. setup builds the probe's state, untimed,
// and returns the batch to time; ops is the number of operations in it.
func (p *prober) time(name string, reps, ops int, setup func() func()) cost {
	costs := make([]cost, reps)
	for i := range costs {
		costs[i] = p.timeOnce(name, ops, setup())
	}
	return medianCost(costs)
}

// timeOnce times one batch of ops operations and records it as a span.
func (p *prober) timeOnce(name string, ops int, batch func()) cost {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	began := time.Now()
	batch()
	took := time.Since(began)
	runtime.ReadMemStats(&m1)
	p.tr.add(0, name, "", began.UnixNano(), began.Add(took).UnixNano())
	return cost{
		ns:     float64(took.Nanoseconds()) / float64(ops),
		allocs: float64(m1.Mallocs-m0.Mallocs) / float64(ops),
		bytes:  float64(m1.TotalAlloc-m0.TotalAlloc) / float64(ops),
	}
}

func medianCost(costs []cost) cost {
	pick := func(f func(cost) float64) float64 {
		xs := make([]float64, len(costs))
		for i, c := range costs {
			xs[i] = f(c)
		}
		return summarise(xs).Median
	}
	return cost{
		ns:     pick(func(c cost) float64 { return c.ns }),
		allocs: pick(func(c cost) float64 { return c.allocs }),
		bytes:  pick(func(c cost) float64 { return c.bytes }),
	}
}

// heapPer is the live heap one of n objects costs: the heap after a forced
// collection with build's result held, minus the heap before.
func heapPer(n int, build func() any) float64 {
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	held := build()
	runtime.GC()
	runtime.ReadMemStats(&m1)
	runtime.KeepAlive(held)
	return (float64(m1.HeapAlloc) - float64(m0.HeapAlloc)) / float64(n)
}

// ---- vtime ---------------------------------------------------------------

func (p *prober) vtimeProbes() {
	// Dispatch: fanout's boot wave and churn's heartbeats are thousands of
	// processes trading the one execution slot through timed parks.
	const procs, sleeps = 16384, 8
	c := p.time("vtime.switch", p.reps, procs*sleeps, func() func() {
		s := vtime.NewScheduler()
		return func() {
			for i := 0; i < procs; i++ {
				d := time.Duration(i%97+1) * time.Millisecond
				s.Go(func() {
					for k := 0; k < sleeps; k++ {
						s.Sleep(d)
					}
				})
			}
			s.Wait()
		}
	})
	p.metrics["vtime.switch_ns"] = c.ns
	p.metrics["vtime.allocs_per_switch"] = c.allocs

	// Spawn and exit on a pool the previous probe left warm.
	const spawns = 65536
	p.metrics["vtime.spawn_ns"] = p.time("vtime.spawn", p.reps, spawns, func() func() {
		s := vtime.NewScheduler()
		return func() {
			for i := 0; i < spawns; i++ {
				s.Go(func() {})
			}
			s.Wait()
		}
	}).ns

	// Timers: 65 536 pending over a minute, the population a 16k-peer boot
	// keeps in the wheel; placed then fired, and placed then stopped.
	const timers = 65536
	delay := func(i int) time.Duration { return time.Duration(i*7919%60000+1) * time.Millisecond }
	p.metrics["vtime.timer_ns"] = p.time("vtime.timer", p.reps, timers, func() func() {
		s := vtime.NewScheduler()
		return func() {
			for i := 0; i < timers; i++ {
				s.AfterFunc(delay(i), func() {})
			}
			s.Wait()
		}
	}).ns
	p.metrics["vtime.cancel_ns"] = p.time("vtime.cancel", p.reps, timers, func() func() {
		s := vtime.NewScheduler()
		placed := make([]*vtime.Timer, timers)
		return func() {
			for i := range placed {
				placed[i] = s.AfterFunc(delay(i), func() {})
			}
			for _, t := range placed {
				t.Stop()
			}
		}
	}).ns

	// Queue handoff: two processes, one value back and forth.
	const hops = 100_000
	p.metrics["vtime.queue_ns"] = p.time("vtime.queue", p.reps, hops, func() func() {
		s := vtime.NewScheduler()
		ping, pong := vtime.NewQueue(s), vtime.NewQueue(s)
		return func() {
			s.Go(func() {
				for i := 0; i < hops/2; i++ {
					if _, err := ping.Pop(); err != nil {
						return
					}
					pong.Push(i)
				}
			})
			s.Go(func() {
				for i := 0; i < hops/2; i++ {
					ping.Push(i)
					if _, err := pong.Pop(); err != nil {
						return
					}
				}
			})
			s.Wait()
		}
	}).ns
}

// ---- simnet --------------------------------------------------------------

func (p *prober) simnetProbes() {
	const msgs = 100_000
	payload := make([]byte, 64)
	c := p.time("simnet.send", p.reps, msgs, func() func() {
		net := simnet.New(p.seed)
		a := net.MustAddNode("a", simnet.DefaultProfile())
		b := net.MustAddNode("b", simnet.DefaultProfile())
		epA, errA := a.Endpoint("p")
		epB, errB := b.Endpoint("p")
		if errA != nil || errB != nil {
			panic(fmt.Sprint("simnet probe: endpoints: ", errA, errB))
		}
		return func() {
			net.Scheduler().Go(func() {
				for i := 0; i < msgs; i++ {
					if _, err := epB.Recv(); err != nil {
						return
					}
				}
			})
			net.Run(func() {
				for i := 0; i < msgs; i++ {
					epA.Send(epB.Addr(), payload)
				}
			})
		}
	})
	p.metrics["simnet.send_ns"] = c.ns
	p.metrics["simnet.allocs_per_msg"] = c.allocs

	// What an idle node costs resident: the 65k ceiling is per-peer memory.
	const nodes = 65536
	began := time.Now()
	p.metrics["simnet.node_bytes"] = heapPer(nodes, func() any {
		net := simnet.New(p.seed)
		for i := 0; i < nodes; i++ {
			net.MustAddNode(fmt.Sprintf("n%05d", i), simnet.DefaultProfile())
		}
		return net
	})
	p.tr.add(0, "simnet.nodes", "", began.UnixNano(), time.Now().UnixNano())
}

// ---- pipe ----------------------------------------------------------------

// pipePair is two muxes on a two-node network.
type pipePair struct {
	net        *simnet.Network
	muxA, muxC *pipe.Mux
}

func newPipePair(seed int64, window int) pipePair {
	net := simnet.New(seed)
	a := net.MustAddNode("a", simnet.DefaultProfile())
	c := net.MustAddNode("c", simnet.DefaultProfile())
	epA, errA := a.Endpoint("p")
	epC, errC := c.Endpoint("p")
	if errA != nil || errC != nil {
		panic(fmt.Sprint("pipe probe: endpoints: ", errA, errC))
	}
	return pipePair{net, pipe.NewMux(a, epA, pipe.Options{Window: window}), pipe.NewMux(c, epC, pipe.Options{Window: window})}
}

// stream sends msgs acknowledged messages a→c over one conn, window
// senders sharing it, and returns the conn's retransmission count.
func (pp pipePair) stream(msgs, window int) int64 {
	sched := pp.net.Scheduler()
	sched.Go(func() {
		conn, err := pp.muxC.Accept()
		if err != nil {
			return
		}
		for j := 0; j < msgs; j++ {
			if _, err := conn.Recv(); err != nil {
				return
			}
		}
	})
	var retx int64
	pp.net.Run(func() {
		conn, err := pp.muxA.Dial(pp.muxC.Addr())
		if err != nil {
			return
		}
		join := vtime.NewQueue(sched)
		for w := 0; w < window; w++ {
			w := w
			sched.Go(func() {
				for j := w; j < msgs; j += window {
					conn.Send([]byte{byte(j)})
				}
				join.Push(nil)
			})
		}
		for w := 0; w < window; w++ {
			join.Pop()
		}
		retx = conn.Retransmissions()
	})
	return retx
}

func (p *prober) pipeProbes() {
	const msgs = 32768
	for _, window := range []int{1, 4} {
		c := p.time(fmt.Sprintf("pipe.msg.w%d", window), p.reps, msgs, func() func() {
			pp := newPipePair(p.seed, window)
			return func() { pp.stream(msgs, window) }
		})
		p.metrics[fmt.Sprintf("pipe.msg_ns.w%d", window)] = c.ns
		if window == 4 { // the default window, what every control RPC uses
			p.metrics["pipe.allocs_per_msg"] = c.allocs
		}
	}

	// One short-lived conn per control RPC: dial, one message, close.
	const dials = 16384
	p.metrics["pipe.dial_ns"] = p.time("pipe.dial", p.reps, dials, func() func() {
		pp := newPipePair(p.seed, 0)
		return func() {
			pp.net.Scheduler().Go(func() {
				for i := 0; i < dials; i++ {
					conn, err := pp.muxC.Accept()
					if err != nil {
						return
					}
					conn.Recv()
					conn.Close()
				}
			})
			pp.net.Run(func() {
				for i := 0; i < dials; i++ {
					conn, err := pp.muxA.Dial(pp.muxC.Addr())
					if err != nil {
						return
					}
					conn.Send([]byte{1})
					conn.Close()
				}
			})
		}
	}).ns

	// Loss recovery: the retransmission count under 5 % extra loss is an
	// exact function of the seed.
	const lossy = 10_000
	began := time.Now()
	pp := newPipePair(p.seed, 0)
	pp.net.SetExtraLoss("c", 0.05)
	p.metrics["pipe.retransmits"] = float64(pp.stream(lossy, 4))
	p.tr.add(0, "pipe.retransmits", "", began.UnixNano(), time.Now().UnixNano())
}

// ---- wire ----------------------------------------------------------------

func (p *prober) wireProbes() {
	const msgs = 200_000
	blob := make([]byte, 256)
	encode := func(e *wire.Encoder, i int) {
		e.Uint64(uint64(i))
		e.Int64(-int64(i))
		e.Int(i % 16)
		e.Bool(i%2 == 0)
		e.String("n00042.uniform.slice.peerlab/xfer")
		e.String("economic")
		e.Duration(27 * time.Second)
		e.Time(vtime.Epoch)
		e.Float64(0.45)
		e.Float64(float64(i))
		e.StringSlice([]string{"cpu", "2.0"})
		e.BytesField(blob)
	}
	enc := p.time("wire.encode", p.reps, msgs, func() func() {
		return func() {
			for i := 0; i < msgs; i++ {
				e := wire.GetEncoder()
				encode(e, i)
				wire.PutEncoder(e)
			}
		}
	})
	e := wire.NewEncoder(512)
	encode(e, 7)
	frame := e.Bytes()
	dec := p.time("wire.decode", p.reps, msgs, func() func() {
		return func() {
			for i := 0; i < msgs; i++ {
				d := wire.NewDecoder(frame)
				d.Uint64()
				d.Int64()
				d.Int()
				d.Bool()
				d.StringField()
				d.StringField()
				d.Duration()
				d.Time()
				d.Float64()
				d.Float64()
				d.StringSlice()
				d.BytesField()
				if d.Finish() != nil {
					panic("wire probe: roundtrip failed")
				}
			}
		}
	})
	p.metrics["wire.encode_ns"] = enc.ns
	p.metrics["wire.decode_ns"] = dec.ns
	p.metrics["wire.allocs_per_msg"] = enc.allocs + dec.allocs
}

// ---- jxta ----------------------------------------------------------------

func (p *prober) jxtaProbes() {
	const peers = 16384
	now := vtime.Epoch
	clock := func() time.Time { return now }
	adv := func(i int, ttl time.Duration) jxta.Advertisement {
		name := fmt.Sprintf("n%05d.uniform.slice.peerlab", i)
		return jxta.Advertisement{
			Kind: jxta.AdvPeer, ID: jxta.NewID("peer", name), Name: name, Addr: name + "/overlay",
			Expires: now.Add(ttl), Attrs: []jxta.Attr{{Key: "cpu", Value: "1.0"}},
		}
	}
	// A quarter of the directory holds short leases, for the sweep.
	advs := make([]jxta.Advertisement, peers)
	for i := range advs {
		ttl := time.Hour
		if i%4 == 0 {
			ttl = time.Minute
		}
		advs[i] = adv(i, ttl)
	}
	filled := func() *jxta.Cache {
		c := jxta.NewCache(2*peers, clock)
		for _, a := range advs {
			c.Publish(a)
		}
		return c
	}

	p.metrics["jxta.publish_ns"] = p.time("jxta.publish", p.reps, 2*peers, func() func() {
		c := jxta.NewCache(2*peers, clock)
		return func() {
			for _, a := range advs { // publish
				c.Publish(a)
			}
			for _, a := range advs { // renew
				c.Publish(a)
			}
		}
	}).ns
	const queries = 16
	p.metrics["jxta.query_all_ns"] = p.time("jxta.query_all", p.reps, queries*peers, func() func() {
		c := filled()
		return func() {
			for i := 0; i < queries; i++ {
				if got := c.Query(jxta.AdvPeer, ""); len(got) != peers {
					panic(fmt.Sprintf("jxta probe: query returned %d of %d", len(got), peers))
				}
			}
		}
	}).ns
	const lookups = 64
	p.metrics["jxta.lookup_ns"] = p.time("jxta.lookup", p.reps, lookups, func() func() {
		c := filled()
		return func() {
			for i := 0; i < lookups; i++ {
				c.Query(jxta.AdvPeer, advs[i*(peers/lookups)].Name)
			}
		}
	}).ns
	p.metrics["jxta.sweep_ns"] = p.time("jxta.sweep", p.reps, peers, func() func() {
		c := filled()
		return func() {
			if n := c.Sweep(now.Add(2 * time.Minute)); n != peers/4 {
				panic(fmt.Sprintf("jxta probe: sweep evicted %d, want %d", n, peers/4))
			}
		}
	}).ns
	p.metrics["jxta.adv_bytes"] = heapPer(peers, func() any {
		c := jxta.NewCache(2*peers, clock)
		for i := 0; i < peers; i++ {
			c.Publish(adv(i, time.Hour))
		}
		return c
	})
}

// ---- stats ---------------------------------------------------------------

func (p *prober) statsProbes() {
	const peers = 16384
	clock := func() time.Time { return vtime.Epoch }
	name := func(i int) string { return fmt.Sprintf("n%05d.uniform.slice.peerlab", i) }
	names := make([]string, peers)
	for i := range names {
		names[i] = name(i)
	}
	fill := func(r *stats.Registry, from, to int) {
		for _, n := range names[from:to] {
			ps := r.Peer(n)
			ps.SetCPUScore(1)
			ps.RecordMessage(true)
		}
	}

	// What one stats report does to a peer's record.
	const recordsPerPeer = 4
	p.metrics["stats.record_ns"] = p.time("stats.record", p.reps, peers*recordsPerPeer, func() func() {
		r := stats.NewRegistry(clock)
		fill(r, 0, peers)
		return func() {
			for _, n := range names {
				ps := r.Peer(n)
				ps.RecordMessage(true)
				ps.RecordFileSent(true)
				ps.ObserveTransferRate(1<<20, time.Second)
				ps.ObservePetitionDelay(40 * time.Millisecond)
			}
		}
	}).ns
	p.metrics["stats.snapshot_ns"] = p.time("stats.snapshot", p.reps, peers, func() func() {
		r := stats.NewRegistry(clock)
		fill(r, 0, peers)
		return func() { r.Snapshots() }
	}).ns
	// The sharded broker's whole-network read: 8 registries of 2 048.
	const shards = 8
	p.metrics["stats.union_ns"] = p.time("stats.union", p.reps, peers, func() func() {
		regs := make([]*stats.Registry, shards)
		owner := make(map[string]*stats.Registry, peers)
		for s := range regs {
			regs[s] = stats.NewRegistry(clock)
			fill(regs[s], s*peers/shards, (s+1)*peers/shards)
			for _, n := range names[s*peers/shards : (s+1)*peers/shards] {
				owner[n] = regs[s]
			}
		}
		u := stats.NewUnion(regs, func(peer string) *stats.Registry { return owner[peer] })
		return func() { u.Snapshots() }
	}).ns
	p.metrics["stats.peer_bytes"] = heapPer(peers, func() any {
		r := stats.NewRegistry(clock)
		for i := 0; i < peers; i++ {
			ps := r.Peer(name(i)) // a fresh string per peer, as a broker holds
			ps.SetCPUScore(1)
			ps.RecordMessage(true)
		}
		return r
	})
}

// ---- core ----------------------------------------------------------------

func (p *prober) coreProbes() {
	const cands = 16384
	candidates := make([]core.Candidate, cands)
	remembered := make(map[string]time.Duration)
	for i := range candidates {
		ps := stats.NewPeerStats(fmt.Sprintf("n%05d", i), func() time.Time { return vtime.Epoch })
		ps.SetCPUScore(0.5 + float64(i%7)/4)
		ps.ObserveTransferRate(1_000_000+(i*7919)%9_000_000, time.Second)
		ps.ObservePetitionDelay(time.Duration(10+(i*31)%500) * time.Millisecond)
		for j := 0; j <= i%5; j++ {
			ps.RecordMessage(j%3 != 0)
			ps.RecordFileSent(true)
		}
		candidates[i] = core.Candidate{Snapshot: ps.Snapshot()}
		if i%2048 == 0 {
			remembered[ps.Peer()] = time.Duration(i+1) * time.Millisecond
		}
	}
	req := core.Request{Kind: core.KindFileTransfer, SizeBytes: 2 * transfer.Mb, Now: vtime.Epoch}
	models := []core.Selector{
		core.NewEconomic(core.EconomicConfig{}),
		core.NewSamePriority(),
		core.NewQuickPeer(remembered),
	}
	for _, m := range models {
		const selects = 4
		c := p.time("core.rank."+m.Name(), p.reps, selects*cands, func() func() {
			return func() {
				for i := 0; i < selects; i++ {
					if _, err := m.Select(req, candidates); err != nil {
						panic(fmt.Sprint("core probe: ", err))
					}
				}
			}
		})
		p.metrics["core.rank_ns."+m.Name()] = c.ns
		if m.Name() == "economic" { // swarm flows alternate economic and same-priority
			p.metrics["core.allocs_per_select"] = c.allocs * cands
		}
	}
}

// ---- overlay -------------------------------------------------------------

func (p *prober) overlayProbes() {
	const peers, shards = 4096, 4
	req := core.Request{Kind: core.KindFileTransfer, SizeBytes: 2 * transfer.Mb}
	must := func(err error) {
		if err != nil {
			panic(fmt.Sprint("overlay probe: ", err))
		}
	}
	// timeCall is one client call's host time in microseconds, taken from
	// inside the driver process: the whole simulated exchange runs within.
	timeCall := func(fn func() error) float64 {
		began := time.Now()
		must(fn())
		return float64(time.Since(began).Nanoseconds()) / 1e3
	}
	var boots []cost
	var rpcs float64
	var cold, warm, dirty, discover []float64
	for rep := 0; rep < p.heavy; rep++ {
		slice, err := scenario.Deploy(scenario.Uniform(peers), p.seed)
		must(err)
		broker, err := overlay.NewBroker(slice.Control, overlay.BrokerConfig{
			AdvTTL: scenario.DefaultAdvTTL, Shards: shards, CacheLimit: peers,
		})
		must(err)
		// The serial two-RPC boot experiments.Env.RunPeers performs.
		clients := make([]*overlay.Client, 0, peers)
		boots = append(boots, p.timeOnce("overlay.boot", peers, func() {
			slice.Net.Run(func() {
				for _, peer := range slice.Catalog {
					c := overlay.NewClient(slice.Peers[peer.Label], broker.Addr(),
						overlay.ClientConfig{CPUScore: peer.Profile.CPUScore})
					must(c.Start())
					must(c.ReportStats())
					clients = append(clients, c)
				}
			})
		}))
		rpcs = float64(broker.ControlRPCs()) / peers

		// Selection over the booted directory: the first call builds
		// whatever the broker memoizes and repeats hit it (swarm-4096); a
		// stats report between calls invalidates it (churn-1024).
		began := time.Now()
		slice.Net.Run(func() {
			asker, reporter := clients[0], clients[1]
			sel := func() error {
				_, err := asker.SelectPeers("economic", req, 1, nil)
				return err
			}
			cold = append(cold, timeCall(sel))
			for i := 0; i < 8; i++ {
				warm = append(warm, timeCall(sel))
			}
			for i := 0; i < 8; i++ {
				must(reporter.ReportStats())
				dirty = append(dirty, timeCall(sel))
			}
			for i := 0; i < 4; i++ {
				discover = append(discover, timeCall(func() error {
					advs, err := asker.Discover()
					if err == nil && len(advs) != peers {
						err = fmt.Errorf("discovered %d of %d peers", len(advs), peers)
					}
					return err
				}))
			}
		})
		p.tr.add(0, "overlay.select", "", began.UnixNano(), time.Now().UnixNano())
	}
	boot := medianCost(boots)
	p.metrics["overlay.boot_us"] = boot.ns / 1e3
	p.metrics["overlay.boot_allocs"] = boot.allocs
	p.metrics["overlay.boot_bytes"] = boot.bytes
	p.metrics["overlay.ctl_rpcs_per_peer"] = rpcs
	p.metrics["overlay.select_cold_us"] = summarise(cold).Median
	p.metrics["overlay.select_warm_us"] = summarise(warm).Median
	p.metrics["overlay.select_dirty_us"] = summarise(dirty).Median
	p.metrics["overlay.discover_us"] = summarise(discover).Median
}

// ---- transfer ------------------------------------------------------------

func (p *prober) transferProbes() {
	const parts = 16
	c := p.time("transfer.send", p.reps, parts, func() func() {
		slice, err := scenario.Deploy(scenario.Uniform(2), p.seed)
		if err != nil {
			panic(fmt.Sprint("transfer probe: ", err))
		}
		broker, err := overlay.NewBroker(slice.Control, overlay.BrokerConfig{AdvTTL: scenario.DefaultAdvTTL})
		if err != nil {
			panic(fmt.Sprint("transfer probe: ", err))
		}
		var clients []*overlay.Client
		slice.Net.Run(func() {
			for _, peer := range slice.Catalog {
				c := overlay.NewClient(slice.Peers[peer.Label], broker.Addr(), overlay.ClientConfig{})
				if err := c.Start(); err != nil {
					panic(fmt.Sprint("transfer probe: start: ", err))
				}
				clients = append(clients, c)
			}
		})
		file := transfer.NewVirtualFile("probe", 100*transfer.Mb, p.seed)
		return func() {
			slice.Net.Run(func() {
				if _, err := clients[0].SendFile(clients[1].Name(), file, parts); err != nil {
					panic(fmt.Sprint("transfer probe: send: ", err))
				}
			})
		}
	})
	p.metrics["transfer.part_us"] = c.ns / 1e3
	p.metrics["transfer.allocs_per_part"] = c.allocs
}

// ---- workload ------------------------------------------------------------

func (p *prober) workloadProbes() {
	const flows = 1024
	labels := scenario.Uniform(16384).Labels
	w := workload.Swarm(flows)
	p.metrics["workload.flows_ns"] = p.time("workload.flows", p.reps, flows, func() func() {
		return func() {
			if got := w.Flows(labels, p.seed); len(got) != flows {
				panic("workload probe: wrong flow count")
			}
		}
	}).ns
}

// ---- scenario ------------------------------------------------------------

func (p *prober) scenarioProbes() {
	const peers = 16384
	sc := scenario.Heterogeneous(peers)
	p.metrics["scenario.deploy_us"] = p.time("scenario.deploy", p.reps, peers, func() func() {
		return func() {
			if _, err := scenario.Deploy(sc, p.seed); err != nil {
				panic(fmt.Sprint("scenario probe: ", err))
			}
		}
	}).ns / 1e3
	p.metrics["scenario.deploy_bytes"] = heapPer(peers, func() any {
		slice, err := scenario.Deploy(sc, p.seed)
		if err != nil {
			panic(fmt.Sprint("scenario probe: ", err))
		}
		return slice
	})
	churn := scenario.Churn(4096)
	events := len(churn.Churn(p.seed))
	p.metrics["scenario.churn_us"] = p.time("scenario.churn", p.reps, events, func() func() {
		return func() { churn.Churn(p.seed) }
	}).ns / 1e3
}

// ---- experiments ---------------------------------------------------------

func (p *prober) experimentsProbes() {
	// Many tiny cells: the default table1 world under controller-fanout.
	const cells = 64
	run := func(workers int) float64 {
		return p.time(fmt.Sprintf("experiments.cells.w%d", workers), p.heavy, cells, func() func() {
			return func() {
				if _, err := experiments.RunWorkload(experiments.Config{Seed: p.seed, Reps: cells, Workers: workers}); err != nil {
					panic(fmt.Sprint("experiments probe: ", err))
				}
			}
		}).ns
	}
	w1 := run(1)
	p.metrics["experiments.cell_ms"] = w1 / 1e6
	p.metrics[speedupName] = 0
	if runtime.GOMAXPROCS(0) > 1 {
		p.metrics[speedupName] = w1 / run(2)
	}
}
