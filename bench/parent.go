package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
	"time"
)

// metricDef declares one end-to-end metric: its unit, direction and the
// share of the parent's median by which it may worsen before a change
// counts as a regression. BENCHMARK.json repeats this table; a test keeps
// the two equal.
type metricDef struct {
	Name   string
	Unit   string
	Higher bool // higher is better
	Bound  float64
}

// endToEnd is what a researcher waiting for the simulator pays: time on the
// clock, time on the cores (cells run in parallel and the collector runs
// beside the one simulation thread), memory, and the allocation volume
// behind both. All are host quantities; simulated results are pinned by the
// digest check instead. The bounds are wide enough to hold the spread of
// each metric across seeds: a workload's allocation count is exact for one
// seed and moves by a few percent between seeds.
var endToEnd = []metricDef{
	{Name: "wall_s", Unit: "s", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Bound: 0.25},
	{Name: "cpu_s", Unit: "s", Bound: 0.25},
	{Name: "peak_rss_mb", Unit: "MB", Bound: 0.15},
	{Name: "allocs_m", Unit: "M", Bound: 0.10},
	{Name: "alloc_gb", Unit: "GB", Bound: 0.15},
}

const (
	minRuns       = 3  // untraced runs per workload, whatever the window
	baselineRuns  = 3  // untraced runs a trace-only invocation makes to size the tracing overhead
	setupSamples  = 15 // set-up-only children per workload, beside the measured runs' own samples
	pinnedProcs   = 2  // GOMAXPROCS in every child, capped at the core count
	pinnedGOGC    = "100"
	overheadName  = "trace.overhead_pct"
	resultName    = "result.json"
	traceFileName = "trace.json"
)

// workloadResult is one workload's share of a result file.
type workloadResult struct {
	Name     string          `json:"name"`
	Runs     int             `json:"runs"`
	EndToEnd map[string]dist `json:"end_to_end,omitempty"`
	// FailShare is failed flows over flows attempted: an outcome of the
	// simulation, exact for a seed, zero on the static workloads.
	FailShare float64 `json:"fail_share"`
	// Digest is the SHA-256 of the report's JSON, identical across every
	// run of the workload, traced or not. Two commits with different
	// digests simulated different things.
	Digest string `json:"digest"`
	// StaleSelections is the summary's selections_stale: a warning, not a
	// failure (see README, findings).
	StaleSelections int                `json:"selections_stale"`
	Warnings        int64              `json:"warnings"`
	PerLayer        map[string]float64 `json:"per_layer,omitempty"`
	Violations      []string           `json:"violations,omitempty"`
	failedRuns      int
}

// resultFile is what one invocation writes.
type resultFile struct {
	Env envHeader `json:"env"`
	// Quick marks a quarter-size smoke run: same names, incomparable values.
	Quick     bool               `json:"quick,omitempty"`
	Workloads []workloadResult   `json:"workloads"`
	Probes    map[string]float64 `json:"probes,omitempty"`
}

// bench is one parent invocation.
type bench struct {
	o     options
	self  string
	procs int
	tr    *tracer
}

// parentMain runs the requested workloads and reports. It returns false
// when a check failed and the exit code should say so; with -workload the
// one-line result carries the verdict and the exit code stays 0.
func parentMain(o options) (bool, error) {
	self, err := os.Executable()
	if err != nil {
		return false, err
	}
	specs := workloads
	if o.workload != "" {
		spec, ok := findWorkload(o.workload)
		if !ok {
			return false, fmt.Errorf("unknown workload %q (have %s)", o.workload, strings.Join(workloadNames(), ", "))
		}
		specs = []workloadSpec{spec}
	}
	if o.trace != "" && o.trace != "0" && o.trace != "1" {
		return false, fmt.Errorf("-trace wants 0 or 1, got %q", o.trace)
	}
	if err := os.MkdirAll(o.outDir, 0o755); err != nil {
		return false, err
	}
	b := &bench{o: o, self: self, procs: min(pinnedProcs, runtime.NumCPU()), tr: &tracer{}}
	res := resultFile{Env: readEnv(o, b.procs), Quick: o.quick}
	res.Env.print(os.Stdout)

	untraced, traced := o.trace != "1", o.trace != "0"
	for _, spec := range specs {
		wr := workloadResult{Name: spec.Name}
		root := b.tr.start(0, "workload", spec.Name)
		var runs []runResult
		if untraced {
			var setups []float64
			runs, setups = b.untracedRuns(spec, root, &wr)
			wr.EndToEnd = endToEndOf(runs, append(setups, b.setupOnly(spec)...))
		} else {
			// A trace-only invocation still needs an untraced median to
			// size the tracing overhead against.
			runs, _ = b.repeat(spec, root, &wr, fixed(baselineRuns))
		}
		if traced {
			b.tracedRun(spec, root, runs, &wr)
		}
		b.tr.end(root)
		res.Workloads = append(res.Workloads, wr)
	}
	if traced && !o.noProbes {
		probes, err := b.probes()
		if err != nil {
			return false, err
		}
		res.Probes = probes
	}

	printReport(os.Stdout, res)
	if err := writeJSON(filepath.Join(o.outDir, resultName), res); err != nil {
		return false, err
	}
	if err := writeJSON(filepath.Join(o.outDir, traceFileName), b.tr.spans); err != nil {
		return false, err
	}
	correct := true
	for _, wr := range res.Workloads {
		if len(wr.Violations) > 0 {
			correct = false
		}
	}
	if o.workload != "" {
		return true, printContractLine(os.Stdout, res, untraced)
	}
	return correct, nil
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

// untracedRuns fills the measuring window: runs repeat while the next one
// is expected to end inside it, and at least minRuns are made. With -runs
// the count is fixed; quick mode makes one.
func (b *bench) untracedRuns(spec workloadSpec, root int, wr *workloadResult) ([]runResult, []float64) {
	switch {
	case b.o.quick:
		return b.repeat(spec, root, wr, fixed(1))
	case b.o.runs > 0:
		return b.repeat(spec, root, wr, fixed(b.o.runs))
	}
	window := time.Duration(b.o.seconds * float64(time.Second))
	return b.repeat(spec, root, wr, func(done int, elapsed time.Duration) bool {
		return done < minRuns || elapsed+elapsed/time.Duration(done) <= window
	})
}

// fixed asks for exactly n runs.
func fixed(n int) func(int, time.Duration) bool {
	return func(done int, _ time.Duration) bool { return done < n }
}

// repeat makes untraced runs while again, told how many were started and
// how long they took together, says so. It returns the runs that succeeded
// and their set-up times.
func (b *bench) repeat(spec workloadSpec, root int, wr *workloadResult, again func(done int, elapsed time.Duration) bool) ([]runResult, []float64) {
	var runs []runResult
	var setups []float64
	began := time.Now()
	for done := 0; again(done, time.Since(began)); done++ {
		if r, setup, ok := b.measuredChild(spec, root, modeRun, wr); ok {
			runs = append(runs, r)
			setups = append(setups, setup)
		}
	}
	return runs, setups
}

// setupOnly takes extra set-up samples from children that stop at the ready
// line: set-up lasts milliseconds, so its median wants more samples than
// the measured runs supply.
func (b *bench) setupOnly(spec workloadSpec) []float64 {
	var setups []float64
	for i := 0; i < setupSamples; i++ {
		_, setup, err := b.child(modeSetup, spec.Name)
		if err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: set-up sample: %v\n", spec.Name, err)
			continue
		}
		setups = append(setups, setup.Seconds())
	}
	return setups
}

// measuredChild makes one run or traced child, folds its outcome into the
// workload's checks and records its spans: run → setup, measured.
func (b *bench) measuredChild(spec workloadSpec, root int, mode string, wr *workloadResult, extra ...string) (runResult, float64, bool) {
	wr.Runs++
	began := time.Now()
	out, setup, err := b.child(mode, spec.Name, extra...)
	var r runResult
	if err == nil {
		err = json.Unmarshal(out, &r)
	}
	if err != nil {
		wr.failedRuns++
		wr.Violations = append(wr.Violations, fmt.Sprintf("%s: %s child: %v", spec.Name, mode, err))
		return r, 0, false
	}
	run := b.tr.add(root, mode, spec.Name, began.UnixNano(), time.Now().UnixNano())
	b.tr.add(run, "setup", spec.Name, began.UnixNano(), began.Add(setup).UnixNano())
	b.tr.add(run, "measured", spec.Name, r.StartNS, r.EndNS)

	bad := len(r.Violation) > 0
	wr.Violations = append(wr.Violations, r.Violation...)
	switch {
	case wr.Digest == "":
		wr.Digest = r.Digest
		wr.StaleSelections = r.Stale
		wr.Warnings = r.Warnings
		if r.Flows > 0 {
			wr.FailShare = float64(r.FailedFlows) / float64(r.Flows)
		}
	case wr.Digest != r.Digest:
		bad = true
		wr.Violations = append(wr.Violations, fmt.Sprintf(
			"%s: %s run's result digest %.12s differs from the first run's %.12s: the simulation is not deterministic, or tracing changed it",
			spec.Name, mode, r.Digest, wr.Digest))
	}
	if bad {
		wr.failedRuns++
	}
	return r, setup.Seconds(), true
}

// endToEndOf reduces the untraced runs to one distribution per metric.
func endToEndOf(runs []runResult, setups []float64) map[string]dist {
	col := func(f func(runResult) float64) []float64 {
		xs := make([]float64, len(runs))
		for i, r := range runs {
			xs[i] = f(r)
		}
		return xs
	}
	return map[string]dist{
		"wall_s":      summarise(col(func(r runResult) float64 { return r.WallS })),
		"setup_s":     summarise(setups),
		"cpu_s":       summarise(col(func(r runResult) float64 { return r.CPUS })),
		"peak_rss_mb": summarise(col(func(r runResult) float64 { return r.PeakRSSMB })),
		"allocs_m":    summarise(col(func(r runResult) float64 { return r.AllocsM })),
		"alloc_gb":    summarise(col(func(r runResult) float64 { return r.AllocGB })),
	}
}

// tracedRun makes the workload's one traced run — CPU and allocation
// profiles recorded around the call, charged to layers — and, where the
// cell can be replayed from outside, the staged run. Its metrics go to
// wr.PerLayer; none of them feeds an end-to-end metric.
func (b *bench) tracedRun(spec workloadSpec, root int, untraced []runResult, wr *workloadResult) {
	wr.PerLayer = make(map[string]float64)
	cpuPath := filepath.Join(b.o.outDir, spec.Name+".cpu.pprof")
	memPath := filepath.Join(b.o.outDir, spec.Name+".alloc.pprof")
	r, _, ok := b.measuredChild(spec, root, modeTraced, wr, "-cpuprofile", cpuPath, "-memprofile", memPath)
	if !ok {
		return
	}
	if len(untraced) > 0 {
		walls := make([]float64, len(untraced))
		for i, u := range untraced {
			walls[i] = u.WallS
		}
		wr.PerLayer[overheadName] = (r.WallS/summarise(walls).Median - 1) * 100
	}
	if err := attributeProfiles(cpuPath, memPath, r.CPUS, wr.PerLayer); err != nil {
		wr.Violations = append(wr.Violations, fmt.Sprintf("%s: attribution: %v", spec.Name, err))
	}
	// A workload that cannot be staged reports its staged metrics as 0:
	// every traced result carries every per-layer name.
	for _, m := range stagedMetrics {
		wr.PerLayer[m.Name] = 0
	}
	if !spec.Staged {
		return
	}
	began := time.Now()
	out, _, err := b.child(modeStaged, spec.Name)
	var st stagedResult
	if err == nil {
		err = json.Unmarshal(out, &st)
	}
	if err != nil {
		wr.Violations = append(wr.Violations, fmt.Sprintf("%s: staged child: %v", spec.Name, err))
		return
	}
	run := b.tr.add(root, modeStaged, spec.Name, began.UnixNano(), time.Now().UnixNano())
	measured := b.tr.add(run, "measured", spec.Name, st.Spans[0].StartNS, st.Spans[len(st.Spans)-1].EndNS)
	b.tr.graft(measured, st.Spans)
	for _, s := range st.Spans {
		wr.PerLayer[s.Name] = float64(s.EndNS-s.StartNS) / 1e9
	}
	for name, v := range st.Counts {
		wr.PerLayer[name] = v
	}
}

// attributeProfiles charges the traced run's profiles to layers:
// <layer>.cpu_s is the layer's share of CPU samples times the CPU seconds
// the child measured across the call, <layer>.alloc_mb the bytes its frames
// allocated.
func attributeProfiles(cpuPath, memPath string, cpuS float64, into map[string]float64) error {
	cpu, err := readProfile(cpuPath, cpuSample)
	if err != nil {
		return err
	}
	mem, err := readProfile(memPath, allocSample)
	if err != nil {
		return err
	}
	cpuBy, memBy := attribute(cpu), attribute(mem)
	var total float64
	for _, v := range cpuBy {
		total += v
	}
	for _, l := range layers {
		into[l+".cpu_s"] = 0
		if total > 0 {
			into[l+".cpu_s"] = cpuBy[l] / total * cpuS
		}
		into[l+".alloc_mb"] = memBy[l] / 1e6
	}
	return nil
}

// probes runs the layer probes in a child of their own and grafts their
// spans under one "probes" span.
func (b *bench) probes() (map[string]float64, error) {
	began := time.Now()
	out, _, err := b.child(modeProbes, "")
	if err != nil {
		return nil, fmt.Errorf("probes child: %w", err)
	}
	var pr probeResult
	if err := json.Unmarshal(out, &pr); err != nil {
		return nil, fmt.Errorf("probes child: %w", err)
	}
	root := b.tr.add(0, "probes", "", began.UnixNano(), time.Now().UnixNano())
	b.tr.graft(root, pr.Spans)
	return pr.Metrics, nil
}

// child re-executes this program in a child mode with the pinned
// environment and returns its result line and the set-up time: the parent's
// clock from just before exec to the child's ready line. It returns only
// once the child has exited.
func (b *bench) child(mode, workload string, extra ...string) ([]byte, time.Duration, error) {
	args := []string{"-child", mode, "-seed", strconv.FormatInt(b.o.seed, 10)}
	if workload != "" {
		args = append(args, "-workload", workload)
	}
	if b.o.quick {
		args = append(args, "-quick")
	}
	cmd := exec.Command(b.self, append(args, extra...)...)
	cmd.Env = append(os.Environ(), "GOMAXPROCS="+strconv.Itoa(b.procs), "GOGC="+pinnedGOGC)
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, 0, err
	}
	began := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, 0, err
	}
	rd := bufio.NewReader(stdout)
	line, rerr := rd.ReadString('\n')
	setup := time.Since(began)
	var rest []byte
	if rerr == nil {
		rest, rerr = io.ReadAll(rd)
	}
	werr := cmd.Wait()
	switch {
	case werr != nil:
		return nil, 0, fmt.Errorf("%w: %s", werr, strings.TrimSpace(stderr.String()))
	case rerr != nil:
		return nil, 0, rerr
	case strings.TrimSpace(line) != readyLine:
		return nil, 0, fmt.Errorf("child said %q before %q", strings.TrimSpace(line), readyLine)
	}
	return rest, setup, nil
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
