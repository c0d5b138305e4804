// Command p2pbench regenerates the paper's tables and figures on the
// simulated PlanetLab deployment, or runs a flow workload (-workload) or a
// sweep grid (-sweep) over a scenario, and prints the result as markdown
// tables, ASCII bar charts, CSV, or JSON.
//
// Cells run on the parallel cell runner, and per-cell seed derivation keeps
// the output bit-identical for a given seed at any -parallel or -shards
// value. Profiling (-cpuprofile, -memprofile, -trace) covers the whole run
// and never changes results. README.md's flag table says what each
// experiment, scenario, workload and flag exercises.
//
// Usage:
//
//	p2pbench [-experiment all|table1|fig2..fig7|figchurn|figfault|figcluster|figstream]
//	         [-scenario table1|uniform:N|heterogeneous:N|zipf:N|churn:N|faults:N]
//	         [-workload controller-fanout|swarm:N|allpairs:N|disseminate:N|stream:N]
//	         [-sweep "axis=v,v;..."]
//	         [-seed N] [-reps N] [-parallel N] [-shards N]
//	         [-format markdown|bars|csv|json]
//	         [-cpuprofile FILE] [-memprofile FILE] [-trace FILE]
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"slices"
	"strings"

	"peerlab/internal/experiments"
	"peerlab/internal/metrics"
	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// result is the machine-readable run record emitted by -format json.
type result struct {
	Scenario string                       `json:"scenario"`
	Workload string                       `json:"workload,omitempty"`
	Seed     int64                        `json:"seed"`
	Reps     int                          `json:"reps"`
	Workers  int                          `json:"workers"`
	Shards   int                          `json:"shards"`
	Table1   *metrics.Table               `json:"table1,omitempty"`
	Figures  []experiments.SuiteFigure    `json:"figures,omitempty"`
	Flows    []experiments.FlowRecord     `json:"flows,omitempty"`
	Summary  *experiments.WorkloadSummary `json:"summary,omitempty"`
}

func main() {
	os.Exit(run())
}

// fail reports err on stderr and returns the exit code for it.
func fail(code int, err error) int {
	fmt.Fprintf(os.Stderr, "p2pbench: %v\n", err)
	return code
}

// run is the command; it returns the exit code, after its deferred calls
// have flushed any profiles.
func run() int {
	var (
		exp      = flag.String("experiment", "all", "which exhibit to regenerate ("+experiments.ExperimentNames()+")")
		scen     = flag.String("scenario", "table1", "slice scenario: table1 (the paper's calibrated world), uniform:N, heterogeneous:N, zipf:N, churn:N, faults:N")
		wl       = flag.String("workload", "", "run a flow workload instead of the figures: controller-fanout, swarm:N, allpairs:N, disseminate:N, stream:N")
		sweep    = flag.String("sweep", "", `run a sweep grid instead: "scenario=table1,churn:64;model=all;rep=5" (axes: `+experiments.SweepAxisNames()+")")
		seed     = flag.Int64("seed", 2007, "simulation seed (runs with equal seeds are identical)")
		reps     = flag.Int("reps", 5, "repetitions per data point (the paper used 5)")
		parallel = flag.Int("parallel", 0, "experiment cells run concurrently (0 = GOMAXPROCS, 1 = serial)")
		shards   = flag.Int("shards", 1, "broker shards per deployed slice (results are shard-count independent)")
		format   = flag.String("format", "markdown", "output format: markdown, bars, csv, json")
		cpuProf  = flag.String("cpuprofile", "", "write a CPU profile of the whole run to FILE")
		memProf  = flag.String("memprofile", "", "write a heap profile (after a final GC) to FILE at exit")
		traceOut = flag.String("trace", "", "write a runtime execution trace of the whole run to FILE")
	)
	flag.Parse()

	switch *format {
	case "markdown", "bars", "csv", "json":
	default:
		// Reject up front: a typo'd format should not cost a full run.
		return fail(2, fmt.Errorf("unknown format %q (want markdown, bars, csv, json)", *format))
	}
	stopProfiles, err := startProfiles(*cpuProf, *memProf, *traceOut)
	defer stopProfiles()
	if err != nil {
		return fail(2, err)
	}
	expNames := strings.Split(*exp, ",")
	for i := range expNames {
		expNames[i] = strings.TrimSpace(expNames[i])
	}
	// A figure with a world of its own (figchurn, figfault, ...) cannot run
	// the -scenario flag's static default; with no explicit choice it runs
	// the registry's default — rewritten here, before the run record is
	// built, so the emitted scenario field names the world the figure
	// measured. A mixed experiment list shares one scenario and one run
	// record, so it needs the choice made explicitly; failing up front
	// beats burning the other figures' runs and aborting.
	for _, f := range experiments.Figures {
		if f.Scenario == "" || flagWasSet("scenario") || !slices.Contains(expNames, f.Name) {
			continue
		}
		if len(expNames) > 1 {
			return fail(2, fmt.Errorf("%s alongside other experiments needs an explicit -scenario", f.Name))
		}
		*scen = f.Scenario
	}
	sc, err := scenario.Parse(*scen)
	if err != nil {
		return fail(2, err)
	}

	// The run record names the inputs the cells actually derive from: a
	// defaulted flag (-seed 0, -reps 0, -parallel 0, -shards 0) is reported
	// as what it resolved to.
	cfg := experiments.Config{Seed: *seed, Reps: *reps, Workers: *parallel, Scenario: sc, Shards: *shards}.WithDefaults()
	out := result{Scenario: sc.Name, Seed: cfg.Seed, Reps: cfg.Reps, Workers: cfg.Workers, Shards: cfg.Shards}

	if *wl != "" {
		// Parsed before the sweep branch: -workload fills the sweep's
		// workload axis when the spec leaves it unset.
		w, err := workload.Parse(*wl)
		if err != nil {
			return fail(2, err)
		}
		cfg.Workload = w
	}

	if *sweep != "" {
		sw, err := experiments.ParseSweep(*sweep)
		if err != nil {
			return fail(2, err)
		}
		report, err := experiments.RunSweep(cfg, sw)
		if err != nil {
			return fail(1, err)
		}
		if err := renderSweep(report, *format); err != nil {
			return fail(1, err)
		}
		return 0
	}

	if *wl != "" {
		report, err := experiments.RunWorkload(cfg)
		if err != nil {
			return fail(1, err)
		}
		out.Workload = report.Workload
		out.Flows = report.Flows
		out.Summary = &report.Summary
		if err := render(out, *format); err != nil {
			return fail(1, err)
		}
		return 0
	}

	// One path for "all", a single exhibit and a list: the figures share
	// one worker pool and one run of every cell batch two of them view.
	suite, err := experiments.RunFigures(cfg, expNames)
	if errors.Is(err, experiments.ErrUnknownExperiment) {
		return fail(2, err)
	} else if err != nil {
		return fail(1, err)
	}
	out.Table1, out.Figures = suite.Table1, suite.Figures

	if err := render(out, *format); err != nil {
		return fail(1, err)
	}
	return 0
}

// startProfiles opens the requested profile outputs and returns the call
// that finishes what it started, which run defers even beside an error. The
// CPU profile and execution trace start immediately; the heap profile is
// captured when they stop, after a final GC, so it reflects the live heap of
// the completed run rather than transient garbage. Like the profiles, tracing
// never changes results: the simulation runs on virtual time and identical
// seeds, instrumented or not (CI diffs a traced run's JSON against an
// untraced one).
func startProfiles(cpuFile, memFile, traceFile string) (func(), error) {
	var stops []func()
	stop := func() {
		for _, s := range stops {
			s()
		}
		if memFile == "" {
			return
		}
		f, err := os.Create(memFile)
		if err != nil {
			fmt.Fprintf(os.Stderr, "p2pbench: %v\n", err)
			return
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fmt.Fprintf(os.Stderr, "p2pbench: %v\n", err)
		}
		f.Close()
	}
	if cpuFile != "" {
		f, err := os.Create(cpuFile)
		if err != nil {
			return stop, err
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, err
		}
		stops = append(stops, func() {
			pprof.StopCPUProfile()
			f.Close()
		})
	}
	if traceFile != "" {
		f, err := os.Create(traceFile)
		if err != nil {
			return stop, err
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return stop, err
		}
		stops = append(stops, func() {
			trace.Stop()
			f.Close()
		})
	}
	return stop, nil
}

// flagWasSet reports whether the named flag was explicitly passed on the
// command line (as opposed to holding its default).
func flagWasSet(name string) bool {
	set := false
	flag.Visit(func(f *flag.Flag) {
		if f.Name == name {
			set = true
		}
	})
	return set
}

func render(out result, format string) error {
	if format == "json" {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(out)
	}
	if out.Workload != "" {
		return renderWorkload(out, format)
	}
	if out.Table1 != nil {
		fmt.Println(out.Table1.Markdown())
	}
	for _, sf := range out.Figures {
		switch format {
		case "bars":
			fmt.Println(sf.Figure.Bars(50))
		case "csv":
			fmt.Print(sf.Figure.CSV())
		default:
			fmt.Println(sf.Figure.Markdown())
		}
	}
	return nil
}

// renderSweep prints a sweep report. JSON emits the report alone — no
// outer run wrapper, so the bytes are identical at any -parallel/-shards
// value (the CI smoke job diffs exactly this). CSV emits one row per cell;
// markdown/bars render the cell table followed by the marginal summaries.
func renderSweep(report *experiments.SweepReport, format string) error {
	switch format {
	case "json":
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	case "csv":
		fmt.Println(strings.Join(append(experiments.SweepColumns(), "rep", "flows", "failed", "departed", "lagged", "stale", "degraded", "recovered", "retries", "mean_xmit_seconds"), ","))
		for _, c := range report.Cells {
			s := c.Summary
			fmt.Printf("%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%.6f\n",
				strings.Join(c.Coordinates(), ","), c.Rep, s.Flows, s.FailedFlows, s.PeersDeparted, s.SelectionsLagged, s.SelectionsStale,
				s.SelectionsDegraded, s.FlowsRecovered, s.RetriesSpent,
				s.MeanTransmissionSeconds)
		}
		return nil
	default:
		t := &metrics.Table{
			Title:   fmt.Sprintf("Sweep %s (seed %d)", report.Sweep, report.Seed),
			Columns: append(experiments.SweepColumns(), "rep", "flows", "failed", "lagged", "stale", "degraded", "recovered", "mean xmit s"),
		}
		for _, c := range report.Cells {
			s := c.Summary
			t.AddRow(append(c.Coordinates(), fmt.Sprint(c.Rep), fmt.Sprint(s.Flows),
				fmt.Sprint(s.FailedFlows), fmt.Sprint(s.SelectionsLagged), fmt.Sprint(s.SelectionsStale),
				fmt.Sprint(s.SelectionsDegraded), fmt.Sprint(s.FlowsRecovered),
				fmt.Sprintf("%.3f", s.MeanTransmissionSeconds))...)
		}
		fmt.Println(t.Markdown())
		if len(report.Marginals) > 0 {
			mt := &metrics.Table{
				Title:   "Marginal summaries",
				Columns: []string{"axis", "value", "cells", "flows", "failed %", "lagged %", "stale %", "degraded %", "recovered %", "mean xmit s"},
			}
			for _, m := range report.Marginals {
				mt.AddRow(m.Axis, m.Value, fmt.Sprint(m.Cells), fmt.Sprint(m.Flows),
					fmt.Sprintf("%.2f", m.FailedPct), fmt.Sprintf("%.2f", m.LaggedPct),
					fmt.Sprintf("%.2f", m.StalePct), fmt.Sprintf("%.2f", m.DegradedPct),
					fmt.Sprintf("%.2f", m.RecoveredPct), fmt.Sprintf("%.3f", m.MeanTransmissionSeconds))
			}
			fmt.Println(mt.Markdown())
		}
		return nil
	}
}

// renderWorkload prints a workload report's flows as CSV or a markdown
// table, followed by the summary line (on stderr in CSV mode, so stdout
// stays machine-parseable).
func renderWorkload(out result, format string) error {
	summaryTo := os.Stdout
	if format == "csv" {
		summaryTo = os.Stderr
		fmt.Println("rep,index,source,sink,model,bytes,parts,attempts,petition_seconds,transmission_seconds")
		for _, f := range out.Flows {
			fmt.Printf("%d,%d,%s,%s,%s,%d,%d,%d,%.6f,%.6f\n",
				f.Rep, f.Index, f.Source, f.Sink, f.Model, f.Bytes, f.Parts,
				f.Attempts, f.PetitionSeconds, f.TransmissionSeconds)
		}
	} else {
		t := &metrics.Table{
			Title:   fmt.Sprintf("Workload %s on %s", out.Workload, out.Scenario),
			Columns: []string{"rep", "flow", "source", "sink", "model", "Mb", "parts", "attempts", "xmit s"},
		}
		for _, f := range out.Flows {
			t.AddRow(fmt.Sprint(f.Rep), fmt.Sprint(f.Index), f.Source, f.Sink, f.Model,
				fmt.Sprintf("%.0f", float64(f.Bytes)/1e6), fmt.Sprint(f.Parts),
				fmt.Sprint(f.Attempts), fmt.Sprintf("%.3f", f.TransmissionSeconds))
		}
		fmt.Println(t.Markdown())
	}
	s := out.Summary
	fmt.Fprintf(summaryTo, "flows=%d total=%.0fMb relaunched=%d max-attempts=%d mean-xmit=%.3fs max-xmit=%.3fs",
		s.Flows, float64(s.TotalBytes)/1e6, s.Relaunched, s.MaxAttempts,
		s.MeanTransmissionSeconds, s.MaxTransmissionSeconds)
	if s.PeersDeparted > 0 || s.FailedFlows > 0 {
		// Churn counters, printed only when a schedule ran so static
		// summary lines keep their exact historical shape.
		fmt.Fprintf(summaryTo, " failed=%d departed=%d lagged=%d stale=%d",
			s.FailedFlows, s.PeersDeparted, s.SelectionsLagged, s.SelectionsStale)
	}
	if s.RetriesSpent > 0 || s.SelectionsDegraded > 0 || s.BrokerDownSeconds > 0 {
		// Fault counters, same rule: only a faulty run prints them.
		fmt.Fprintf(summaryTo, " retries=%d degraded=%d recovered=%d broker-down=%.0fs",
			s.RetriesSpent, s.SelectionsDegraded, s.FlowsRecovered, s.BrokerDownSeconds)
	}
	if s.PiecesMoved > 0 {
		// Dissemination counters: only the piece engine moves pieces, so
		// swarm/allpairs summary lines keep their exact historical shape.
		fmt.Fprintf(summaryTo, " pieces=%d reoriginated=%d stalled=%d stalls=%d",
			s.PiecesMoved, s.PeersReOriginated, s.StalledFlows, s.TotalStalls)
		if s.CrossPairBytes > 0 {
			fmt.Fprintf(summaryTo, " pairing=%.2f", float64(s.LikePairBytes)/float64(s.CrossPairBytes))
		}
	}
	fmt.Fprintln(summaryTo)
	return nil
}
