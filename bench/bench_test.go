package main

// Unit tests of the benchmark's own arithmetic. None of them runs a
// workload: `go test ./...` stays a matter of milliseconds here.

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"strings"
	"testing"
	"time"
)

func TestLayerOf(t *testing.T) {
	cases := []struct {
		name  string
		stack []string // innermost first
		want  string
	}{
		{"runtime frame under pipe is pipe's", []string{
			"runtime.mallocgc", "runtime.newobject",
			"peerlab/internal/pipe.(*Conn).SendSized",
			"peerlab/internal/overlay.(*Client).call",
			"peerlab/internal/experiments.RunWorkload", "main.measuredRun",
		}, "pipe"},
		{"innermost module wins", []string{
			"runtime.chansend",
			"peerlab/internal/vtime.(*Scheduler).Sleep",
			"peerlab/internal/pipe.(*Conn).SendTimeout",
			"peerlab/internal/transfer.(*Sender).Send",
		}, "vtime"},
		{"closure names", []string{
			"peerlab/internal/vtime.(*Scheduler).AfterFunc.func1",
			"peerlab/internal/vtime.(*Pool).run",
		}, "vtime"},
		{"unlisted modules are looked through", []string{
			"sort.Float64s", "peerlab/internal/metrics.Summarize",
			"peerlab/internal/experiments.summarize",
		}, "experiments"},
		{"catalog synthesis belongs to its caller", []string{
			"peerlab/internal/planetlab.Scenario.func1",
			"peerlab/internal/scenario.Deploy",
		}, "scenario"},
		{"GC worker", []string{
			"runtime.scanobject", "runtime.gcDrain", "runtime.gcBgMarkWorker.func2",
			"runtime.systemstack", "runtime.gcBgMarkWorker", "runtime.goexit",
		}, layerGC},
		{"background sweeper", []string{
			"runtime.sweepone", "runtime.bgsweep", "runtime.gcenable.gowrap1", "runtime.goexit",
		}, layerGC},
		{"GC assist inside a module stays the module's", []string{
			"runtime.gcAssistAlloc", "runtime.mallocgc",
			"peerlab/internal/wire.(*Decoder).StringField",
		}, "wire"},
		{"idle scheduler", []string{
			"runtime.futex", "runtime.futexsleep", "runtime.notesleep", "runtime.stopm",
			"runtime.findRunnable", "runtime.schedule", "runtime.park_m", "runtime.mcall",
		}, layerOther},
		{"bench's own frames", []string{"encoding/json.Marshal", "main.digest"}, layerOther},
		{"empty stack", nil, layerOther},
	}
	for _, c := range cases {
		if got := layerOf(c.stack); got != c.want {
			t.Errorf("%s: layerOf = %q, want %q", c.name, got, c.want)
		}
	}
}

func TestAttributeSumsPerLayer(t *testing.T) {
	got := attribute([]sample{
		{stack: []string{"runtime.memmove", "peerlab/internal/wire.(*Encoder).String"}, value: 3},
		{stack: []string{"peerlab/internal/wire.(*Decoder).Uint64"}, value: 2},
		{stack: []string{"runtime.gcBgMarkWorker"}, value: 5},
	})
	if got["wire"] != 5 || got[layerGC] != 5 || len(got) != 2 {
		t.Fatalf("attribute = %v", got)
	}
}

// profiledAllocation allocates under a recognisable frame.
//
//go:noinline
func profiledAllocation() [][]byte {
	out := make([][]byte, 64)
	for i := range out {
		out[i] = make([]byte, 1<<20)
	}
	return out
}

func TestReadProfileDecodesWhatPprofWrites(t *testing.T) {
	old := runtime.MemProfileRate
	runtime.MemProfileRate = 1 << 10
	defer func() { runtime.MemProfileRate = old }()
	held := profiledAllocation()
	runtime.GC()
	path := filepath.Join(t.TempDir(), "alloc.pprof")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(held)

	samples, err := readProfile(path, allocSample)
	if err != nil {
		t.Fatal(err)
	}
	var bytesSeen int64
	for _, s := range samples {
		for _, fn := range s.stack {
			if strings.HasSuffix(fn, ".profiledAllocation") {
				bytesSeen += s.value
				break
			}
		}
	}
	if bytesSeen < 32<<20 {
		t.Fatalf("profile charges %d bytes to profiledAllocation, want about %d", bytesSeen, 64<<20)
	}
	if _, err := readProfile(path, "no_such_type"); err == nil {
		t.Fatal("unknown sample type accepted")
	}
}

func TestSummariseMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	d := summarise([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5})
	if d.N != 10 || d.Q1 != 2.75 || d.Median != 5.5 || d.Q3 != 8.25 || d.Min != 1 || d.Max != 10 {
		t.Fatalf("summarise(1..10) = %+v", d)
	}
	if got := d.spread(); math.Abs(got-1) > 1e-12 {
		t.Fatalf("spread = %v, want 1", got)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if d := summarise([]float64{3, 1, 2}); d.Q1 != 1 || d.Median != 2 || d.Q3 != 3 {
		t.Fatalf("summarise(1..3) = %+v", d)
	}
	if d := summarise([]float64{4}); d.Q1 != 4 || d.Median != 4 || d.Q3 != 4 || d.spread() != 0 {
		t.Fatalf("summarise(one value) = %+v", d)
	}
	if d := summarise(nil); d.N != 0 {
		t.Fatalf("summarise(nil) = %+v", d)
	}
}

func TestVerdict(t *testing.T) {
	tight := func(m float64) dist { return summarise([]float64{m * 0.99, m, m, m, m * 1.01}) }
	noisy := summarise([]float64{80, 90, 100, 110, 120})
	cases := []struct {
		name           string
		parent, change dist
		bound          float64
		higher         bool
		want           string
	}{
		{"unchanged", tight(100), tight(100), 0.10, false, verdictOK},
		{"within bound", tight(100), tight(108), 0.10, false, verdictOK},
		{"beyond bound", tight(100), tight(112), 0.10, false, verdictRegressed},
		{"improved", tight(100), tight(50), 0.10, false, verdictOK},
		{"parent too noisy to tell", noisy, tight(112), 0.10, false, verdictUnresolved},
		{"noisy parent, yet every run of the change is better", noisy, tight(70), 0.10, false, verdictOK},
		{"higher is better: dropped", tight(100), tight(80), 0.10, true, verdictRegressed},
		{"higher is better: rose", tight(100), tight(130), 0.10, true, verdictOK},
		{"no runs", dist{}, tight(1), 0.10, false, verdictUnresolved},
	}
	for _, c := range cases {
		if got := verdict(c.parent, c.change, c.bound, c.higher); got != c.want {
			t.Errorf("%s: verdict = %s, want %s", c.name, got, c.want)
		}
	}
}

func TestSelfTimes(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, StartNS: 10, EndNS: 40},
		{ID: 3, Parent: 1, StartNS: 30, EndNS: 60},   // overlaps 2: counted once
		{ID: 4, Parent: 1, StartNS: 90, EndNS: 130},  // clipped to the parent
		{ID: 5, Parent: 2, StartNS: 10, EndNS: 40},   // covers its parent
		{ID: 6, Parent: 3, StartNS: 200, EndNS: 210}, // outside its parent
	}
	want := map[int]time.Duration{1: 40, 2: 0, 3: 30, 4: 40, 5: 30, 6: 10}
	got := selfTimes(spans)
	for id, w := range want {
		if got[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, got[id], w)
		}
	}
}

func TestGraftRenumbers(t *testing.T) {
	tr := &tracer{}
	root := tr.add(0, "probes", "", 0, 100)
	tr.graft(root, []span{{ID: 1, Parent: 0, Name: "a"}, {ID: 2, Parent: 1, Name: "b"}})
	if len(tr.spans) != 3 || tr.spans[1].ID != 2 || tr.spans[1].Parent != root ||
		tr.spans[2].ID != 3 || tr.spans[2].Parent != 2 {
		t.Fatalf("grafted spans = %+v", tr.spans)
	}
}

// TestWorkloadSpecs resolves every workload at full and quick size and
// checks the flow (or sweep cell) count the reports must hold.
func TestWorkloadSpecs(t *testing.T) {
	want := map[string][2]int{ // full, quick
		"fanout-4096":  {4096, 1024},
		"swarm-4096":   {256, 64},
		"churn-1024":   {256, 64},
		"faults-128x4": {384, 96},
		"dissem-512":   {512, 128},
		"sweep-grid":   {90, 45},
	}
	if len(workloads) != len(want) {
		t.Fatalf("%d workloads, want %d", len(workloads), len(want))
	}
	for _, w := range workloads {
		for i, quick := range []bool{false, true} {
			p, err := w.resolve(2, quick)
			if err != nil {
				t.Fatalf("%s (quick=%v): %v", w.Name, quick, err)
			}
			if p.units != want[w.Name][i] {
				t.Errorf("%s (quick=%v): %d flows/cells, want %d", w.Name, quick, p.units, want[w.Name][i])
			}
			if p.cfg.Seed != 2 {
				t.Errorf("%s: seed %d did not reach the config", w.Name, p.cfg.Seed)
			}
		}
		if len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("%s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
}

func TestCheckFlagsWrongCountsAndStaticFailures(t *testing.T) {
	spec, _ := findWorkload("swarm-4096")
	p, err := spec.resolve(1, true)
	if err != nil {
		t.Fatal(err)
	}
	if bad := p.check(outcome{Units: p.units}); len(bad) != 0 {
		t.Fatalf("correct outcome flagged: %v", bad)
	}
	if bad := p.check(outcome{Units: p.units - 1, FailedFlows: 2}); len(bad) != 2 {
		t.Fatalf("violations = %v, want a count and a failed-flow violation", bad)
	}
}

// benchmarkJSON mirrors the root BENCHMARK.json.
type benchmarkJSON struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func better(higher bool) string {
	if higher {
		return "higher"
	}
	return "lower"
}

// TestBenchmarkJSONDeclaresWhatTheProgramPrints keeps the declaration at the
// repository root equal to the tables in this package.
func TestBenchmarkJSONDeclaresWhatTheProgramPrints(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkJSON
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&b); err != nil {
		t.Fatal(err)
	}
	if strings.Join(b.Command, " ") != "go run ./bench" || len(b.Paths) != 1 || b.Paths[0] != "bench" {
		t.Errorf("command %q paths %q", b.Command, b.Paths)
	}
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d defined", len(b.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if b.Workloads[i].Name != w.Name || b.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: declared %+v, defined %s: %s", i, b.Workloads[i], w.Name, w.Why)
		}
	}
	if len(b.EndToEnd) != len(endToEnd) {
		t.Fatalf("%d end-to-end metrics declared, %d defined", len(b.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		d := b.EndToEnd[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != better(m.Higher) || d.Bound != m.Bound {
			t.Errorf("end-to-end metric %d: declared %+v, defined %+v", i, d, m)
		}
	}
	per := perLayerMetrics()
	if len(b.PerLayer) != len(per) {
		t.Fatalf("%d per-layer metrics declared, %d defined", len(b.PerLayer), len(per))
	}
	seen := make(map[string]bool)
	for i, m := range per {
		d := b.PerLayer[i]
		if d.Name != m.Name || d.Unit != m.Unit || d.Better != better(m.Higher) {
			t.Errorf("per-layer metric %d: declared %+v, defined %+v", i, d, m)
		}
		if seen[m.Name] {
			t.Errorf("per-layer metric %s defined twice", m.Name)
		}
		seen[m.Name] = true
	}
}

func TestContractLineCarriesEveryDeclaredMetric(t *testing.T) {
	per := make(map[string]float64)
	for _, m := range stagedMetrics {
		per[m.Name] = 1
	}
	for _, l := range layers {
		per[l+".cpu_s"], per[l+".alloc_mb"] = 1, 1
	}
	per[overheadName] = 1
	probes := make(map[string]float64)
	for _, m := range probeMetrics {
		probes[m.Name] = 2
	}
	e2e := make(map[string]dist)
	for _, m := range endToEnd {
		e2e[m.Name] = summarise([]float64{1, 2, 3})
	}
	res := resultFile{
		Workloads: []workloadResult{{Name: "swarm-4096", Runs: 3, EndToEnd: e2e, PerLayer: per}},
		Probes:    probes,
	}
	for _, endToEndMetrics := range []bool{true, false} {
		var out bytes.Buffer
		if err := printContractLine(&out, res, endToEndMetrics); err != nil {
			t.Fatal(err)
		}
		var line map[string]json.RawMessage
		if err := json.Unmarshal(out.Bytes(), &line); err != nil {
			t.Fatal(err)
		}
		if len(line) != 4 {
			t.Errorf("contract line has keys %v, want exactly correct, attempted, failed, metrics", line)
		}
		var metrics map[string]contractValue
		if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
			t.Fatal(err)
		}
		want := len(endToEnd)
		if !endToEndMetrics {
			want = len(perLayerMetrics())
		}
		if len(metrics) != want {
			t.Errorf("endToEnd=%v: %d metrics on the line, want %d", endToEndMetrics, len(metrics), want)
		}
		for name, v := range metrics {
			if v.Unit == "" || v.Value == 0 {
				t.Errorf("metric %s = %+v", name, v)
			}
		}
	}
}

func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	result := func(name string, wall, failShare float64, digest string) string {
		e2e := make(map[string]dist)
		for _, m := range endToEnd {
			e2e[m.Name] = summarise([]float64{wall * 0.99, wall, wall * 1.01})
		}
		path := filepath.Join(dir, name)
		err := writeJSON(path, resultFile{
			Env:       envHeader{Commit: name, Seed: 1, Seconds: 12},
			Workloads: []workloadResult{{Name: "swarm-4096", Runs: 3, EndToEnd: e2e, FailShare: failShare, Digest: digest}},
		})
		if err != nil {
			t.Fatal(err)
		}
		return path
	}
	parent := result("parent.json", 2.0, 0.10, "aaaa")

	var out bytes.Buffer
	regressed, err := compareFiles(&out, parent, result("same.json", 2.02, 0.10, "aaaa"))
	if err != nil || regressed {
		t.Fatalf("same commit: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "digests: identical") || strings.Contains(out.String(), verdictRegressed) {
		t.Errorf("same commit:\n%s", out.String())
	}

	out.Reset()
	regressed, err = compareFiles(&out, parent, result("slow.json", 2.6, 0.10, "bbbb"))
	if err != nil || !regressed {
		t.Fatalf("slower change: regressed=%v err=%v\n%s", regressed, err, out.String())
	}
	if !strings.Contains(out.String(), "DIGEST CHANGED") {
		t.Errorf("digest change not listed:\n%s", out.String())
	}

	out.Reset()
	if regressed, _ = compareFiles(&out, parent, result("failing.json", 2.0, 0.11, "aaaa")); !regressed {
		t.Errorf("a higher fail_share must regress:\n%s", out.String())
	}
}
