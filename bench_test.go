package peerlab

// Benchmarks regenerate every table and figure of the paper (one benchmark
// per exhibit) plus ablations of the design choices DESIGN.md calls out.
// Each iteration runs the full experiment on virtual time; custom metrics
// expose the headline quantities so `go test -bench` output doubles as a
// compact reproduction report:
//
//	go test -bench=. -benchmem
//
// Absolute numbers are not expected to match the paper (the substrate is a
// simulator); the *shape* assertions live in internal/experiments tests.

import (
	"runtime"
	"testing"
	"time"

	"fmt"

	"peerlab/internal/experiments"
	"peerlab/internal/metrics"
	"peerlab/internal/overlay"
	"peerlab/internal/pipe"
	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
	"peerlab/internal/vtime"
	"peerlab/internal/wire"
	"peerlab/internal/workload"
)

// benchCfg keeps per-iteration experiment cost moderate; seeds vary per
// iteration so the benches also act as a light fuzz over seeds.
func benchCfg(i int) experiments.Config {
	return experiments.Config{Seed: int64(3000 + i), Reps: 2}
}

// benchFigure runs one registry figure — the path the CLI and the suite take.
func benchFigure(name string, cfg experiments.Config) (*metrics.Figure, error) {
	f, ok := experiments.FigureByName(name)
	if !ok {
		return nil, fmt.Errorf("no figure %q", name)
	}
	return f.Run(cfg)
}

func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		tab := experiments.Table1()
		if len(tab.Rows) != 25 {
			b.Fatalf("rows = %d", len(tab.Rows))
		}
	}
}

func BenchmarkFig2PetitionTime(b *testing.B) {
	var sc7 float64
	for i := 0; i < b.N; i++ {
		fig, err := benchFigure("fig2", benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		sc7, _ = fig.Value("petition time", "SC7")
	}
	b.ReportMetric(sc7, "SC7-petition-s")
}

func BenchmarkFig3Transmission50Mb(b *testing.B) {
	var sc7 float64
	for i := 0; i < b.N; i++ {
		fig, err := benchFigure("fig3", benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		sc7, _ = fig.Value("transmission time", "SC7")
	}
	b.ReportMetric(sc7, "SC7-50Mb-min")
}

func BenchmarkFig4LastMb(b *testing.B) {
	var sc7 float64
	for i := 0; i < b.N; i++ {
		fig, err := benchFigure("fig4", benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		sc7, _ = fig.Value("last Mb", "SC7")
	}
	b.ReportMetric(sc7, "SC7-lastMb-s")
}

func BenchmarkFig5Granularity(b *testing.B) {
	var whole, sixteen float64
	for i := 0; i < b.N; i++ {
		fig, err := benchFigure("fig5", benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		var sumW, sum16 float64
		labels := scenario.Table1().Labels
		for _, l := range labels {
			w, _ := fig.Value("complete file", l)
			s, _ := fig.Value("division into 16 parts", l)
			sumW += w
			sum16 += s
		}
		whole = sumW / float64(len(labels))
		sixteen = sum16 / float64(len(labels))
	}
	b.ReportMetric(whole, "avg-whole-min")
	b.ReportMetric(sixteen, "avg-16part-min")
}

func BenchmarkFig6SelectionModels(b *testing.B) {
	var eco, quick float64
	for i := 0; i < b.N; i++ {
		fig, err := benchFigure("fig6", benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		eco, _ = fig.Value("division into 4 parts", "economic")
		quick, _ = fig.Value("division into 4 parts", "quick-peer")
	}
	b.ReportMetric(eco, "economic-4part-s")
	b.ReportMetric(quick, "quickpeer-4part-s")
}

func BenchmarkFig7ExecVsTransferExec(b *testing.B) {
	var gap float64
	for i := 0; i < b.N; i++ {
		fig, err := benchFigure("fig7", benchCfg(i))
		if err != nil {
			b.Fatal(err)
		}
		both, _ := fig.Value("transmission & execution", "SC7")
		exec, _ := fig.Value("just execution", "SC7")
		gap = both - exec
	}
	b.ReportMetric(gap, "SC7-transfer-penalty-min")
}

// BenchmarkFigureSuite regenerates the full Fig2–Fig7 suite on the parallel
// cell runner. The serial/parallel pair pins the runner's multi-core speedup
// on the bench trajectory; both variants produce bit-identical figures for
// the same seed. The heterogeneous-128 variant runs the identical suite on
// a synthesized 128-peer slice (one rep per data point), so the trajectory
// starts capturing production-scale workloads, not just the paper's 8 peers.
func BenchmarkFigureSuite(b *testing.B) {
	run := func(b *testing.B, cfg experiments.Config) {
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(600 + i)
			suite, err := experiments.FigureSuite(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(suite.Figures) != 6 {
				b.Fatalf("suite has %d figures, want 6", len(suite.Figures))
			}
		}
	}
	b.Run("serial", func(b *testing.B) { run(b, experiments.Config{Reps: 2, Workers: 1}) })
	b.Run("parallel", func(b *testing.B) { run(b, experiments.Config{Reps: 2}) })
	b.Run("heterogeneous-128", func(b *testing.B) {
		if testing.Short() {
			b.Skip("production-scale suite; run without -short (scripts/benchsnap.sh does)")
		}
		b.ReportAllocs()
		run(b, experiments.Config{Reps: 1, Scenario: scenario.Heterogeneous(128), Shards: 4})
	})
}

// BenchmarkScale runs whole-overlay sessions at directory sizes two to three
// orders of magnitude past the paper's 8 peers — the scale surfaces this
// repo's perf trajectory is measured against. uniform-1024 boots 1024
// clients and runs the controller-fanout workload, so the boot (one
// register exchange per peer, acked with the known-peer count)
// dominates; swarm-4096 boots a 4096-peer directory and drives 256
// concurrent peer↔peer flows, each resolving its sink through the broker's
// sharded selection service over the full 4096-candidate set (selection is
// O(directory) per call, so the flow count is kept off the quadratic cliff
// — the directory size, not the flow count, is the scale axis here).
// ReportAllocs puts bytes/op and allocs/op on the bench trajectory so
// allocation regressions on the scale path gate CI exactly like time
// regressions. B/op never sees goroutine stacks, so stack-MB reports
// MemStats.StackInuse after the run: the stacks the pooled coroutines kept.
func BenchmarkScale(b *testing.B) {
	// run fails on a failed flow unless the scenario injects faults, where a
	// flow may fail: there the last iteration's failed flows are a metric.
	run := func(b *testing.B, cfg experiments.Config, wantFlows int) {
		b.ReportAllocs()
		failed := 0
		for i := 0; i < b.N; i++ {
			cfg.Seed = int64(700 + i)
			report, err := experiments.RunWorkload(cfg)
			if err != nil {
				b.Fatal(err)
			}
			if len(report.Flows) != wantFlows {
				b.Fatalf("flows = %d, want %d", len(report.Flows), wantFlows)
			}
			failed = 0
			for _, f := range report.Flows {
				if f.Failed && cfg.Scenario.Faults == nil {
					b.Fatalf("flow %d failed: %s", f.Index, f.Error)
				} else if f.Failed {
					failed++
				}
			}
		}
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		b.ReportMetric(float64(ms.StackInuse)/(1<<20), "stack-MB")
		if cfg.Scenario.Faults != nil {
			b.ReportMetric(float64(failed), "failed-flows")
		}
	}
	b.Run("uniform-1024", func(b *testing.B) {
		if testing.Short() {
			b.Skip("scale surface; run without -short (scripts/benchsnap.sh does)")
		}
		run(b, experiments.Config{Reps: 1, Scenario: scenario.Uniform(1024)}, 1024)
	})
	b.Run("swarm-4096", func(b *testing.B) {
		if testing.Short() {
			b.Skip("scale surface; run without -short (scripts/benchsnap.sh does)")
		}
		run(b, experiments.Config{
			Reps:     1,
			Scenario: scenario.Heterogeneous(4096),
			Workload: workload.Swarm(256),
			Shards:   4,
		}, 256)
	})
	// faults-128 is the resilient call path: 128 peers whose heartbeats renew
	// their leases and re-discover the directory, through the faults
	// scenario's broker blackouts, partitions and loss bursts, under 96
	// swarm flows on 4 shards — one world of the faults-128x4 workload.
	b.Run("faults-128", func(b *testing.B) {
		if testing.Short() {
			b.Skip("scale surface; run without -short (scripts/benchsnap.sh does)")
		}
		run(b, experiments.Config{
			Reps:     1,
			Scenario: scenario.Faulty(128),
			Workload: workload.Swarm(96),
			Shards:   4,
		}, 96)
	})
	// disseminate-4096 is the piece engine at 4096 downloaders of the default
	// payload over the zipf catalog: every round, each holder's report and
	// choke decision and the round's plan, over pair state that grows with
	// the pairs that moved bytes, not with the square of the swarm.
	b.Run("disseminate-4096", func(b *testing.B) {
		if testing.Short() {
			b.Skip("scale surface; run without -short (scripts/benchsnap.sh does)")
		}
		run(b, experiments.Config{
			Reps:     1,
			Scenario: scenario.Zipf(4096),
			Workload: workload.DisseminateWith(4096, workload.Dissemination{}),
		}, 4096)
	})
	// swarm-16384 quadruples the directory behind the same selection load —
	// the point on the curve where O(directory) selection work and the boot
	// wave's spawn burst dominate everything else. uniform-65536 is a pure
	// boot stressor: 64k clients register and are acked, with
	// a small swarm (the flow set stays constant so the axis is directory
	// size, not traffic). Both raise CacheLimit so the whole directory stays
	// broker-resident — the measurement is selection over the full catalog,
	// not over whatever survived eviction — and both exist to keep the
	// dispatcher honest at sizes where one goroutine per process or one
	// heap op per timer would dominate the profile.
	b.Run("swarm-16384", func(b *testing.B) {
		if testing.Short() {
			b.Skip("scale surface; run without -short (scripts/benchsnap.sh does)")
		}
		run(b, experiments.Config{
			Reps:       1,
			Scenario:   scenario.Heterogeneous(16384),
			Workload:   workload.Swarm(256),
			Shards:     8,
			CacheLimit: 4096,
		}, 256)
	})
	b.Run("uniform-65536", func(b *testing.B) {
		if testing.Short() {
			b.Skip("scale surface; run without -short (scripts/benchsnap.sh does)")
		}
		run(b, experiments.Config{
			Reps:       1,
			Scenario:   scenario.Uniform(65536),
			Workload:   workload.Swarm(64),
			Shards:     8,
			CacheLimit: 16384,
		}, 64)
	})
	// boot-65536 isolates the boot itself: 64k peers registering one after
	// another, no workload afterwards. The ctlRPCs/peer metric pins the
	// control-plane cost of admission at one register frame per peer (the
	// +1 in the numerator is the controller's own registration).
	b.Run("boot-65536", func(b *testing.B) {
		if testing.Short() {
			b.Skip("scale surface; run without -short (scripts/benchsnap.sh does)")
		}
		b.ReportAllocs()
		var rpcsPerPeer float64
		for i := 0; i < b.N; i++ {
			env, err := experiments.NewEnv(experiments.Config{
				Seed:       int64(700 + i),
				Reps:       1,
				Scenario:   scenario.Uniform(65536),
				Shards:     8,
				CacheLimit: 16384,
			})
			if err != nil {
				b.Fatal(err)
			}
			err = env.RunPeers(nil, func(ctl *overlay.Client, sc map[string]*overlay.Client) error {
				if len(sc) != 65536 {
					b.Errorf("booted %d peers, want 65536", len(sc))
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			rpcsPerPeer = float64(env.Broker.ControlRPCs()) / 65536
		}
		b.ReportMetric(rpcsPerPeer, "ctlRPCs/peer")
	})
}

// --- Ablations -----------------------------------------------------------

// BenchmarkAblationGranularitySweep extends Figure 5: transmission time of
// a 100 Mb file to the median peer at granularities 1..32.
func BenchmarkAblationGranularitySweep(b *testing.B) {
	for _, parts := range []int{1, 2, 4, 8, 16, 32} {
		b.Run(fmt.Sprintf("%dparts", parts), func(b *testing.B) {
			var mins float64
			for i := 0; i < b.N; i++ {
				d, err := Deploy(Config{Seed: int64(100 + i), Scenario: ScenarioTable1})
				if err != nil {
					b.Fatal(err)
				}
				err = d.Run(func(s *Session) error {
					m, err := s.SendFile("lsirextpc01.epfl.ch", // SC6, mid-tier
						NewVirtualFile("sweep", 100*Mb, int64(i)), parts)
					if err != nil {
						return err
					}
					mins = m.TransmissionTime().Minutes()
					return nil
				})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(mins, "minutes")
		})
	}
}

// BenchmarkAblationFailureModel isolates the restart effect behind Figure
// 5: the same whole-file transfer with and without the MTBF failure model.
// A transfer abandoned after the pipe exhausts its retries is itself a
// valid (and dire) data point: its cost is the virtual time burned.
func BenchmarkAblationFailureModel(b *testing.B) {
	run := func(b *testing.B, mtbf time.Duration) float64 {
		var mins float64
		for i := 0; i < b.N; i++ {
			prof := scenario.Table1().Synthesize(0)[6].Profile // SC7
			prof.MTBF = mtbf
			d, err := Deploy(Config{
				Seed:  int64(200 + i),
				Peers: []PeerConfig{{Name: "sc7-like", Profile: prof}},
			})
			if err != nil {
				b.Fatal(err)
			}
			err = d.Run(func(s *Session) error {
				m, sendErr := s.SendFile("sc7-like", NewVirtualFile("f", 100*Mb, int64(i)), 1)
				if sendErr == nil {
					mins = m.TransmissionTime().Minutes()
				}
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
			if mins == 0 {
				mins = d.Elapsed().Minutes() // abandoned: charge the time burned
			}
		}
		return mins
	}
	b.Run("failures-on", func(b *testing.B) {
		b.ReportMetric(run(b, 35*time.Minute), "minutes")
	})
	b.Run("failures-off", func(b *testing.B) {
		b.ReportMetric(run(b, 0), "minutes")
	})
}

// BenchmarkAblationPipeWindow compares stop-and-wait (the paper's protocol)
// with a windowed pipe on a high-latency path.
func BenchmarkAblationPipeWindow(b *testing.B) {
	run := func(b *testing.B, window int) float64 {
		var elapsed time.Duration
		for i := 0; i < b.N; i++ {
			p := simnet.DefaultProfile()
			p.LatencyOneWay = 100 * time.Millisecond
			net := simnet.New(int64(300 + i))
			a := net.MustAddNode("a", p)
			c := net.MustAddNode("c", p)
			epA, _ := a.Endpoint("p")
			epC, _ := c.Endpoint("p")
			muxA := pipe.NewMux(a, epA, pipe.Options{Window: window})
			muxC := pipe.NewMux(c, epC, pipe.Options{Window: window})
			const msgs = 32
			net.Scheduler().Go(func() {
				conn, err := muxC.Accept()
				if err != nil {
					return
				}
				for j := 0; j < msgs; j++ {
					if _, err := conn.Recv(); err != nil {
						return
					}
				}
			})
			net.Run(func() {
				conn, _ := muxA.Dial("c/p")
				join := vtime.NewQueue(net.Scheduler())
				for w := 0; w < window; w++ {
					w := w
					net.Scheduler().Go(func() {
						for j := w; j < msgs; j += window {
							conn.Send([]byte{byte(j)})
						}
						join.Push(nil)
					})
				}
				for w := 0; w < window; w++ {
					join.Pop()
				}
			})
			elapsed = net.Scheduler().Elapsed()
		}
		return elapsed.Seconds()
	}
	b.Run("stop-and-wait", func(b *testing.B) {
		b.ReportMetric(run(b, 1), "virtual-s")
	})
	b.Run("window-4", func(b *testing.B) {
		b.ReportMetric(run(b, 4), "virtual-s")
	})
}

// BenchmarkAblationStaleQuickPeer quantifies the user-preference model's
// documented drawback: selection quality when the remembered ranking is
// stale versus fresh.
func BenchmarkAblationStaleQuickPeer(b *testing.B) {
	run := func(b *testing.B, remembered []string) float64 {
		var secs float64
		for i := 0; i < b.N; i++ {
			d, err := Deploy(Config{Seed: int64(400 + i), Scenario: ScenarioTable1})
			if err != nil {
				b.Fatal(err)
			}
			err = d.Run(func(s *Session) error {
				peers, err := s.SelectPeers(ModelQuickPeer,
					SelectionRequest{Kind: KindFileTransfer, SizeBytes: Mb}, 1, remembered)
				if err != nil {
					return err
				}
				m, err := s.SendFile(peers[0], NewVirtualFile("f", Mb, int64(i)), 4)
				if err != nil {
					return err
				}
				secs = m.TransmissionTime().Seconds()
				return nil
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		return secs
	}
	b.Run("fresh-memory", func(b *testing.B) {
		// The user remembers the genuinely fastest peer (SC2).
		b.ReportMetric(run(b, []string{"planetlab1.hiit.fi"}), "xfer-s")
	})
	b.Run("stale-memory", func(b *testing.B) {
		// The user remembers SC7 as fast — it no longer is.
		b.ReportMetric(run(b, []string{"planetlab1.itwm.fhg.de"}), "xfer-s")
	})
}

// BenchmarkSimulatorThroughput measures raw simulator event throughput:
// messages simulated per wall second on a busy 8-peer slice.
func BenchmarkSimulatorThroughput(b *testing.B) {
	for i := 0; i < b.N; i++ {
		d, err := Deploy(Config{Seed: int64(500 + i), Scenario: ScenarioTable1})
		if err != nil {
			b.Fatal(err)
		}
		err = d.Run(func(s *Session) error {
			for _, p := range d.Peers() {
				if _, err := s.SendFile(p, NewVirtualFile("t", Mb, 1), 8); err != nil {
					return err
				}
			}
			return nil
		})
		if err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWireCodec measures the protocol codec in isolation: one
// encode+decode round of a representative message.
func BenchmarkWireCodec(b *testing.B) {
	payload := make([]byte, 1024)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := wire.NewEncoder(len(payload) + 64)
		e.Uint64(uint64(i))
		e.String("planetlab1.itwm.fhg.de/xfer")
		e.Duration(27 * time.Second)
		e.Float64(0.45)
		e.BytesField(payload)
		d := wire.NewDecoder(e.Bytes())
		d.Uint64()
		d.StringField()
		d.Duration()
		d.Float64()
		if got := d.BytesField(); len(got) != len(payload) || d.Finish() != nil {
			b.Fatal("codec roundtrip failed")
		}
	}
}

// BenchmarkSummaryStats measures the metrics reducer on a large sample.
func BenchmarkSummaryStats(b *testing.B) {
	xs := make([]float64, 10_000)
	for i := range xs {
		xs[i] = float64(i%997) * 0.5
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := metrics.Summarize(xs)
		if s.Max != 498 {
			b.Fatal("bad summary")
		}
	}
}
