package experiments

import (
	"encoding/json"
	"testing"

	"peerlab/internal/metrics"
	"peerlab/internal/scenario"
	"peerlab/internal/sweeptest"
	"peerlab/internal/workload"
)

// goldenJSON renders a result the way the golden files store it.
func goldenJSON(t *testing.T, v any) []byte {
	t.Helper()
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return append(b, '\n')
}

// goldenCase is one committed artifact: a seed-2007 run rendered to JSON.
// Every row locks the engine's determinism claim the same way — the run
// must reproduce testdata/<file> byte for byte at workers=1/shards=1, and
// re-running the identical config at workers=4 and at workers=4/shards=3
// must reproduce the same bytes, so "bit-identical at any parallelism" is
// a tier-1 test, not a verification note. `go test -update` re-records
// after a deliberate engine change.
type goldenCase struct {
	file string
	// scenario and workload are specs; "" leaves the Config field unset
	// (the run's own default world).
	scenario, workload string
	reps               int
	run                func(Config) (any, error)
	// check asserts the run actually exercised the machinery the row is
	// named for, before its bytes are compared.
	check func(t *testing.T, v any)
}

func workloadRun(c Config) (any, error) { return RunWorkload(c) }

// figureRun runs the registry row with the given key.
func figureRun(name string) func(Config) (any, error) {
	return func(c Config) (any, error) { return figure(name, c) }
}

func summaryOf(v any) WorkloadSummary { return v.(*WorkloadReport).Summary }

// seriesByLabel reads one series of a figure into a label → value map.
func seriesByLabel(v any, series int) map[string]float64 {
	fig := v.(*metrics.Figure)
	out := map[string]float64{}
	for i, label := range fig.Labels {
		out[label] = fig.Series[series].Values[i]
	}
	return out
}

// The dissemination rows run on zipf:16 — the bandwidth-skewed world where
// piece exchange and choking have classes to discriminate.
var goldenCases = []goldenCase{
	{file: "fig2-table1.golden.json", reps: 2, run: figureRun("fig2")},
	// The churn path: live membership, lease expiry, staggered launches,
	// per-flow failures.
	{file: "churn16-swarm16.golden.json", scenario: "churn:16", workload: "swarm:16", reps: 1, run: workloadRun},
	// The robustness path: broker blackouts with cold-cache restarts, site
	// partitions, control-link loss bursts, retried and degraded
	// selections — and the resilience machinery must actually fire.
	{file: "faults16-swarm16.golden.json", scenario: "faults:16", workload: "swarm:16", reps: 1, run: workloadRun,
		check: func(t *testing.T, v any) {
			s := summaryOf(v)
			if s.SelectionsDegraded == 0 {
				t.Fatal("fault golden exercised no degraded selections")
			}
			if s.FlowsRecovered == 0 {
				t.Fatal("fault golden recovered no flows")
			}
			if s.BrokerDownSeconds <= 0 {
				t.Fatal("fault golden reports no broker downtime")
			}
		}},
	// The piece engine: multi-round exchange, re-origination, tit-for-tat
	// choking — and it must actually swarm (peers re-originated, pair bytes
	// split across bandwidth classes, nothing failed or stalled).
	{file: "zipf16-disseminate16.golden.json", scenario: "zipf:16", workload: "disseminate:16;pick=rarest;choke=tft", reps: 1, run: workloadRun,
		check: func(t *testing.T, v any) {
			s := summaryOf(v)
			if s.FailedFlows != 0 || s.StalledFlows != 0 {
				t.Fatalf("dissemination golden has failed/stalled flows: %+v", s)
			}
			if s.PeersReOriginated == 0 {
				t.Fatal("dissemination golden re-originated nothing; swarm degenerated to fanout")
			}
			if s.LikePairBytes == 0 || s.CrossPairBytes == 0 {
				t.Fatalf("dissemination golden has a degenerate pair split: like=%d cross=%d", s.LikePairBytes, s.CrossPairBytes)
			}
		}},
	// The same swarm under playback deadlines, sequential picking.
	{file: "zipf16-stream16.golden.json", scenario: "zipf:16", workload: "stream:16;pick=sequential;choke=tft", reps: 1, run: workloadRun,
		check: func(t *testing.T, v any) {
			s := summaryOf(v)
			if s.PiecesMoved == 0 {
				t.Fatal("streaming golden moved no pieces")
			}
			if s.FailedFlows != 0 {
				t.Fatalf("streaming golden has failed flows: %+v", s)
			}
		}},
	// The incentive result itself: on its default world tit-for-tat must
	// pair fast peers with fast peers (like/cross ratio above 1 — Legout's
	// clustering) and more strongly than the policy-neutral baseline.
	{file: "figcluster-zipf16.golden.json", reps: 1, run: figureRun("figcluster"),
		check: func(t *testing.T, v any) {
			ratios := seriesByLabel(v, 0)
			if ratios["choke=tft"] <= 1 {
				t.Fatalf("tft pairing ratio %.3f not above 1; no bandwidth clustering", ratios["choke=tft"])
			}
			if ratios["choke=tft"] <= ratios["choke=none"] {
				t.Fatalf("tft pairing ratio %.3f not above the unchoked baseline %.3f", ratios["choke=tft"], ratios["choke=none"])
			}
		}},
	// The piece engine under a membership schedule: downloaders depart and
	// rejoin mid-swarm, failures are recorded, delivered pieces stay
	// counted.
	{file: "churn16-disseminate16.golden.json", scenario: "churn:16", workload: "disseminate:16", reps: 1, run: workloadRun,
		check: func(t *testing.T, v any) {
			s := summaryOf(v)
			if s.PeersDeparted == 0 {
				t.Fatal("churned dissemination golden saw no departures")
			}
			if s.PiecesMoved == 0 || s.PeersReOriginated == 0 {
				t.Fatalf("churned dissemination golden did not swarm: %+v", s)
			}
		}},
	// Streaming under the fault scenario's conductor, injector and
	// resilient call policy (this cell's plan draws partitions and loss
	// bursts but no blackout, so broker_down_seconds is 0 here).
	{file: "faults16-stream16.golden.json", scenario: "faults:16", workload: "stream:16", reps: 1, run: workloadRun,
		check: func(t *testing.T, v any) {
			s := summaryOf(v)
			if s.PiecesMoved == 0 || s.TotalStalls == 0 {
				t.Fatalf("fault streaming golden moved no pieces or missed no deadline: %+v", s)
			}
		}},
	// The four marginal figures and the paper suite, as rendered.
	{file: "figchurn-churn16.golden.json", scenario: "churn:16", reps: 1, run: figureRun("figchurn")},
	{file: "figfault-faults16.golden.json", scenario: "faults:16", reps: 1, run: figureRun("figfault"),
		check: func(t *testing.T, v any) {
			degraded := seriesByLabel(v, 1)
			if degraded["×4"] <= 0 {
				t.Fatalf("fault figure shows no degraded selections at ×4: %v", degraded)
			}
		}},
	{file: "figstream-zipf16.golden.json", reps: 1, run: figureRun("figstream")},
	{file: "suite-table1.golden.json", reps: 1, run: func(c Config) (any, error) { return FigureSuite(c) }},
	// A paper figure on a churning scenario measures the catalog with
	// static membership under the default 30-day lease: every model must
	// find a candidate after the warm-up's idle gaps, which a 90 s lease
	// with no renewals would have expired.
	{file: "fig6-churn8.golden.json", scenario: "churn:8", reps: 1, run: figureRun("fig6"),
		check: func(t *testing.T, v any) {
			for series := range v.(*metrics.Figure).Series {
				for model, secs := range seriesByLabel(v, series) {
					if secs <= 0 {
						t.Fatalf("fig6 on churn:8: %s transmitted in %v s; selection found no live lease", model, secs)
					}
				}
			}
		}},
}

// config is the row's seed-2007 configuration, workers and shards unset.
func (gc *goldenCase) config(t *testing.T) Config {
	t.Helper()
	cfg := Config{Seed: 2007, Reps: gc.reps}
	if gc.scenario != "" {
		sc, err := scenario.Parse(gc.scenario)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Scenario = sc
	}
	if gc.workload != "" {
		w, err := workload.Parse(gc.workload)
		if err != nil {
			t.Fatal(err)
		}
		cfg.Workload = w
	}
	return cfg
}

// runGolden runs the goldenCases row recorded in file.
func runGolden(t *testing.T, file string) {
	t.Helper()
	var gc *goldenCase
	for i := range goldenCases {
		if goldenCases[i].file == file {
			gc = &goldenCases[i]
		}
	}
	if gc == nil {
		t.Fatalf("no golden case records %s", file)
	}
	cfg := gc.config(t)
	var golden []byte
	for _, alt := range [][2]int{{1, 1}, {4, 1}, {4, 3}} {
		cfg.Workers, cfg.Shards = alt[0], alt[1]
		v, err := gc.run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		got := goldenJSON(t, v)
		if golden == nil {
			if gc.check != nil {
				gc.check(t, v)
			}
			golden = got
			sweeptest.Golden(t, gc.file, golden)
			continue
		}
		if err := sweeptest.Diff(golden, got); err != nil {
			t.Fatalf("%s at workers=%d shards=%d diverged from golden: %v", gc.file, alt[0], alt[1], err)
		}
	}
}

func TestGoldenFig2Table1(t *testing.T)       { runGolden(t, "fig2-table1.golden.json") }
func TestGoldenChurnSwarm(t *testing.T)       { runGolden(t, "churn16-swarm16.golden.json") }
func TestGoldenFaultSwarm(t *testing.T)       { runGolden(t, "faults16-swarm16.golden.json") }
func TestGoldenDisseminate(t *testing.T)      { runGolden(t, "zipf16-disseminate16.golden.json") }
func TestGoldenStream(t *testing.T)           { runGolden(t, "zipf16-stream16.golden.json") }
func TestGoldenClusterFigure(t *testing.T)    { runGolden(t, "figcluster-zipf16.golden.json") }
func TestGoldenChurnDisseminate(t *testing.T) { runGolden(t, "churn16-disseminate16.golden.json") }
func TestGoldenFaultStream(t *testing.T)      { runGolden(t, "faults16-stream16.golden.json") }
func TestGoldenChurnFigure(t *testing.T)      { runGolden(t, "figchurn-churn16.golden.json") }
func TestGoldenFaultFigure(t *testing.T)      { runGolden(t, "figfault-faults16.golden.json") }
func TestGoldenStreamFigure(t *testing.T)     { runGolden(t, "figstream-zipf16.golden.json") }
func TestGoldenFigureSuite(t *testing.T)      { runGolden(t, "suite-table1.golden.json") }
func TestGoldenFig6Churn(t *testing.T)        { runGolden(t, "fig6-churn8.golden.json") }
