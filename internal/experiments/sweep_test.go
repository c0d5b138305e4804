package experiments

import (
	"reflect"
	"strings"
	"testing"

	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// TestParseSweepGrammar pins the flag grammar: axis parsing, the "all"
// model expansion, canonical printing, and rejection of malformed specs.
func TestParseSweepGrammar(t *testing.T) {
	sw, err := ParseSweep("scenario=table1,churn:64; model=all ;granularity=1,4,16;size=50;churn=0.5,1,2;rep=5")
	if err != nil {
		t.Fatal(err)
	}
	want := Sweep{
		Scenarios:     []string{"table1", "churn:64"},
		Models:        []string{"economic", "same-priority", "quick-peer"},
		Granularities: []int{1, 4, 16},
		Sizes:         []int{50},
		ChurnRates:    []float64{0.5, 1, 2},
		Reps:          5,
	}
	if !reflect.DeepEqual(sw, want) {
		t.Fatalf("parsed = %+v, want %+v", sw, want)
	}
	spec := sw.Spec()
	if spec != "scenario=table1,churn:64;model=economic,same-priority,quick-peer;granularity=1,4,16;size=50;churn=0.5,1,2;rep=5" {
		t.Fatalf("canonical spec = %q", spec)
	}
	back, err := ParseSweep(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(back, sw) {
		t.Fatalf("round trip diverged: %+v vs %+v", back, sw)
	}

	for _, bad := range []string{
		"nonsense",
		"axisless=",
		"scenario=",
		"scenario=a,,b",
		"granularity=0",
		"granularity=four",
		"size=-1",
		"churn=0",
		"churn=nan-ish",
		"churn=200",
		"churn=Inf",
		"fault=0",
		"fault=200",
		"fault=Inf",
		"rep=1,2",
		"rep=0",
		"scenario=a;scenario=b",
		"reps=2",
		"turnips=1",
	} {
		if _, err := ParseSweep(bad); err == nil {
			t.Errorf("ParseSweep(%q) accepted", bad)
		}
	}
	// The empty spec is a valid empty grid description (every axis
	// defaults); RunSweep resolves it against the config.
	if _, err := ParseSweep(""); err != nil {
		t.Fatalf("empty spec rejected: %v", err)
	}

	// Repeated values within an axis collapse to first occurrence —
	// duplicated cells would simulate identical worlds redundantly.
	dup, err := ParseSweep("model=all,quick-peer;granularity=4,4,2")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(dup.Models, []string{"economic", "same-priority", "quick-peer"}) {
		t.Fatalf("models not deduped: %v", dup.Models)
	}
	if !reflect.DeepEqual(dup.Granularities, []int{4, 2}) {
		t.Fatalf("granularities not deduped: %v", dup.Granularities)
	}
}

// TestSweepNormalizedSpecDedup pins expansion-time dedup by canonical name:
// spec strings that normalize to the same scenario/workload must expand to
// one cell batch, not two identical worlds double-weighting the marginals.
func TestSweepNormalizedSpecDedup(t *testing.T) {
	sw, err := ParseSweep("scenario=uniform:4,uniform:04;workload=allpairs:2,allpairs:02;rep=1")
	if err != nil {
		t.Fatal(err)
	}
	plans, reps, err := expandSweep(Config{Seed: 1}.WithDefaults(), sw)
	if err != nil {
		t.Fatal(err)
	}
	if reps != 1 || len(plans) != 1 {
		t.Fatalf("plans = %d (reps %d), want 1 after normalized dedup", len(plans), reps)
	}
	if c := plans[0].cell; c.Scenario != "uniform:4" || c.Workload != "allpairs:2" {
		t.Fatalf("cell = %+v", c)
	}
}

// TestSweepAxesCoverSweep holds sweepAxes to one row per Sweep axis: a
// valid value parsed through each row sets exactly one slice field, a
// different one per row, the rows together set them all, and the canonical
// spec reparses to the same sweep. A field added without a row fails here
// instead of silently never expanding.
func TestSweepAxesCoverSweep(t *testing.T) {
	samples := map[string]string{
		"scenario": "uniform:2", "workload": "swarm:2", "model": "economic",
		"granularity": "4", "size": "8", "pick": "sequential", "choke": "none",
		"churn": "2", "fault": "0.5",
	}
	fields := reflect.TypeOf(Sweep{})
	covered := map[string]string{}
	for _, ax := range sweepAxes {
		v, ok := samples[ax.name]
		if !ok {
			t.Fatalf("axis %q has no sample value", ax.name)
		}
		var sw Sweep
		if err := ax.add(&sw, v); err != nil {
			t.Fatalf("axis %q rejected %q: %v", ax.name, v, err)
		}
		var set []string
		for i := 0; i < fields.NumField(); i++ {
			if f := reflect.ValueOf(sw).Field(i); f.Kind() == reflect.Slice && f.Len() > 0 {
				set = append(set, fields.Field(i).Name)
			}
		}
		if len(set) != 1 {
			t.Fatalf("axis %q set fields %v, want exactly one", ax.name, set)
		}
		if prev, dup := covered[set[0]]; dup {
			t.Fatalf("axes %q and %q both set %s", prev, ax.name, set[0])
		}
		covered[set[0]] = ax.name
		back, err := ParseSweep(sw.Spec())
		if err != nil || !reflect.DeepEqual(back, sw) {
			t.Fatalf("axis %q: ParseSweep(%q) = %+v, %v; want %+v", ax.name, sw.Spec(), back, err, sw)
		}
	}
	for i := 0; i < fields.NumField(); i++ {
		if f := fields.Field(i); f.Type.Kind() == reflect.Slice && covered[f.Name] == "" {
			t.Errorf("Sweep.%s has no row in sweepAxes", f.Name)
		}
	}
}

// FuzzParseSweep locks the grammar against panics and non-canonical
// printing: any accepted spec must print a canonical form that reparses to
// the identical sweep, and the canonical form must be a fixed point.
func FuzzParseSweep(f *testing.F) {
	f.Add("scenario=table1,churn:64;model=all;rep=5")
	f.Add("granularity=1,4,16;size=50")
	f.Add("churn=0.5,1e2;workload=swarm:8")
	f.Add("scenario=faults:8;fault=0.5,2;rep=1")
	f.Add(";;;")
	f.Add("scenario=α;model==;churn=+1")
	f.Fuzz(func(t *testing.T, spec string) {
		sw, err := ParseSweep(spec)
		if err != nil {
			return
		}
		canon := sw.Spec()
		back, err := ParseSweep(canon)
		if err != nil {
			t.Fatalf("canonical spec %q of %q rejected: %v", canon, spec, err)
		}
		if !reflect.DeepEqual(back, sw) {
			t.Fatalf("round trip of %q diverged: %+v vs %+v", spec, back, sw)
		}
		if again := back.Spec(); again != canon {
			t.Fatalf("canonical form not a fixed point: %q vs %q", again, canon)
		}
	})
}

// TestSweepWorkerShardAndOrderInvariant is the tentpole determinism
// contract on a ≥3-axis grid including churn intensity: the report is
// bit-identical at any worker and shard count, and invariant to the axis
// ordering of the originating spec.
func TestSweepWorkerShardAndOrderInvariant(t *testing.T) {
	sw, err := ParseSweep("scenario=churn:16;granularity=2,4;churn=1,2;rep=1")
	if err != nil {
		t.Fatal(err)
	}
	serial := Config{Seed: 2007, Workers: 1}
	a, err := RunSweep(serial, sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 4 {
		t.Fatalf("cells = %d, want 2 granularities × 2 rates", len(a.Cells))
	}
	b, err := RunSweep(Config{Seed: 2007, Workers: 4}, sw)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunSweep(Config{Seed: 2007, Workers: 4, Shards: 3}, sw)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("worker counts diverged:\n1: %+v\n4: %+v", a, b)
	}
	if !reflect.DeepEqual(a, c) {
		t.Fatalf("shard counts diverged:\n1: %+v\n3: %+v", a, c)
	}
	reordered, err := ParseSweep("churn=1,2;rep=1;granularity=2,4;scenario=churn:16")
	if err != nil {
		t.Fatal(err)
	}
	d, err := RunSweep(serial, reordered)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, d) {
		t.Fatalf("axis ordering changed the report:\n%+v\nvs\n%+v", a, d)
	}
}

// TestSweepCellCompositionInvariant pins the coordinate-keyed seed layout:
// a cell's record must not change when other values join an axis — the
// property that makes two sweeps sharing a grid point comparable, and that
// a linear-index seed layout (the figure engine's) cannot provide.
func TestSweepCellCompositionInvariant(t *testing.T) {
	cfg := Config{Seed: 11, Workers: 2}
	narrow, err := ParseSweep("scenario=uniform:6;workload=swarm:6;granularity=2;rep=2")
	if err != nil {
		t.Fatal(err)
	}
	wide, err := ParseSweep("scenario=uniform:6;workload=swarm:6;granularity=2,8;rep=2")
	if err != nil {
		t.Fatal(err)
	}
	a, err := RunSweep(cfg, narrow)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunSweep(cfg, wide)
	if err != nil {
		t.Fatal(err)
	}
	var shared []SweepRecord
	for _, r := range b.Cells {
		if r.Parts == 2 {
			shared = append(shared, r)
		}
	}
	if !reflect.DeepEqual(a.Cells, shared) {
		t.Fatalf("widening the granularity axis changed the shared cells:\n%+v\nvs\n%+v", a.Cells, shared)
	}
}

// TestSweepModelAxis pins the model axis semantics: forcing a model turns
// every flow — fixed-sink fanout flows included — into a model-selected
// one, and the axis produces one record batch per model.
func TestSweepModelAxis(t *testing.T) {
	sw, err := ParseSweep("scenario=uniform:5;workload=controller-fanout;model=economic,same-priority;rep=1")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunSweep(Config{Seed: 7, Workers: 2}, sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != 2 {
		t.Fatalf("cells = %d, want one per model", len(report.Cells))
	}
	for i, model := range []string{"economic", "same-priority"} {
		r := report.Cells[i]
		if r.Model != model {
			t.Fatalf("cell %d model = %q, want %q", i, r.Model, model)
		}
		if r.Summary.Flows != 5 || r.Summary.FailedFlows != 0 {
			t.Fatalf("cell %d summary = %+v", i, r.Summary)
		}
	}
	var marg []string
	for _, m := range report.Marginals {
		if m.Axis == "model" {
			marg = append(marg, m.Value)
		}
	}
	if !reflect.DeepEqual(marg, []string{"economic", "same-priority"}) {
		t.Fatalf("model marginals = %v", marg)
	}

	// A typo'd model fails at parse time, before any slice deploys.
	if _, err := ParseSweep("model=economics"); err == nil {
		t.Fatal("unknown model accepted by the grammar")
	}
}

// TestSweepQuickPeerUsesRememberedRanking pins the preference plumbing: a
// quick-peer cell carries the scenario's Remembered ranking with its
// selection requests, so its flows land on the remembered-fastest live peer
// — not on whatever candidate happens to sort first.
func TestSweepQuickPeerUsesRememberedRanking(t *testing.T) {
	sc := scenario.Uniform(6)
	report, err := RunWorkload(Config{
		Seed: 7, Workers: 2, Reps: 1,
		Scenario: sc,
		Workload: workload.ControllerFanout().With("quick-peer", 0, 0),
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Flows) == 0 {
		t.Fatal("no flows")
	}
	// Uniform's fig6 hints remember labels[2] fastest; every controller
	// flow consults the same memory against the same candidate set, so the
	// remembered-first peer takes every flow.
	want := sc.Remembered[0]
	for _, f := range report.Flows {
		if f.Sink != want {
			t.Fatalf("quick-peer flow landed on %q, want remembered-first %q (ranking not plumbed?)", f.Sink, want)
		}
	}
}

// TestSweepConfigWorkloadDefault pins the workload-axis precedence: an
// explicit Config.Workload fills the axis when the spec leaves it unset —
// `p2pbench -workload swarm:16 -sweep ...` must sweep swarm:16, not fall
// through to the scenario hint.
func TestSweepConfigWorkloadDefault(t *testing.T) {
	sw, err := ParseSweep("scenario=uniform:4;granularity=1,2;rep=1")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunSweep(Config{Seed: 3, Workers: 2, Workload: workload.AllPairs(2)}, sw)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Cells) != 2 {
		t.Fatalf("cells = %d", len(report.Cells))
	}
	for _, c := range report.Cells {
		if c.Workload != "allpairs:2" {
			t.Fatalf("Config.Workload lost to the default: cell ran %q", c.Workload)
		}
	}
}

// TestSweepChurnRateOnStaticScenarioRejected pins axis purity: the churn
// axis scales membership dynamics, so applying a non-1 rate to a scenario
// without any is a spec error, not a silent no-op that would make the
// marginals lie.
func TestSweepChurnRateOnStaticScenarioRejected(t *testing.T) {
	sw, err := ParseSweep("scenario=uniform:4;churn=2;rep=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(Config{Seed: 1}, sw); err == nil || !strings.Contains(err.Error(), "no dynamics") {
		t.Fatalf("static scenario with churn rate 2 not rejected: %v", err)
	}
	// Rate 1 is the identity and valid everywhere.
	one, err := ParseSweep("scenario=uniform:4;workload=allpairs:2;churn=1;rep=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunSweep(Config{Seed: 1, Workers: 2}, one); err != nil {
		t.Fatalf("churn=1 on a static scenario rejected: %v", err)
	}
}

// TestChurnRateScalesDepartures pins the churn-rate rewrite itself: a
// higher rate draws a schedule with strictly more departures, and rate 1
// reproduces the unrated schedule event for event.
func TestChurnRateScalesDepartures(t *testing.T) {
	base := scenario.Churn(32)
	rated := base.ChurnRate(1)
	if !reflect.DeepEqual(base.Churn(2007), rated.Churn(2007)) {
		t.Fatal("rate 1 changed the schedule")
	}
	count := func(rate float64) int {
		events := base.ChurnRate(rate).Churn(2007)
		n := 0
		for _, e := range events {
			if e.Kind == scenario.ChurnLeave {
				n++
			}
		}
		return n
	}
	low, mid, high := count(0.5), count(1), count(4)
	if !(low < mid && mid < high) {
		t.Fatalf("departure counts not increasing with rate: ×0.5=%d ×1=%d ×4=%d", low, mid, high)
	}

	// Extreme rates reached through the API directly (the grammar bounds
	// them earlier) must degrade gracefully, not wrap the duration
	// arithmetic into a pathological schedule: a vanishing rate means
	// "nobody ever leaves", finite events either way.
	if n := count(1e-9); n != 0 {
		t.Fatalf("rate 1e-9 produced %d departures, want 0", n)
	}
	if _, err := ParseSweep("churn=1e-9"); err == nil {
		t.Fatal("grammar accepted a sub-minimum churn rate")
	}
}

// TestFigChurnQuality runs the new figure end to end on a small slice: four
// intensity labels, three series, and a stale series that is zero at every
// rate — the lease audit carried into figure form. A static scenario is
// rejected rather than silently substituted: the figure must measure what
// its title names.
func TestFigChurnQuality(t *testing.T) {
	if _, err := figure("figchurn", Config{Seed: 1, Reps: 1, Scenario: scenario.Uniform(4)}); err == nil ||
		!strings.Contains(err.Error(), "no churn dynamics") {
		t.Fatalf("static scenario not rejected: %v", err)
	}
	sc, err := scenario.Parse("churn:12")
	if err != nil {
		t.Fatal(err)
	}
	fig, err := figure("figchurn", Config{Seed: 2007, Reps: 1, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Labels) != len(ChurnFigureRates) {
		t.Fatalf("labels = %v", fig.Labels)
	}
	if len(fig.Series) != 3 {
		t.Fatalf("series = %d, want failed/lagged/stale", len(fig.Series))
	}
	for i, label := range fig.Labels {
		stale, ok := fig.Value("selections stale", label)
		if !ok || stale != 0 {
			t.Fatalf("stale selections at %s = %v (ok=%v), must be 0", label, stale, ok)
		}
		for _, s := range fig.Series {
			if v := s.Values[i]; v < 0 || v > 100 {
				t.Fatalf("series %s at %s = %v, out of percentage range", s.Name, label, v)
			}
		}
	}
}

// TestSweepGranularityBoundedOverPieces: the piece engine runs at most
// transfer.MaxPieces pieces, so a larger granularity over a dissemination
// workload is a spec error at expansion, before any slice deploys; over a
// single-round workload the same part count stays valid.
func TestSweepGranularityBoundedOverPieces(t *testing.T) {
	cfg := Config{Seed: 1}.WithDefaults()
	for _, tc := range []struct {
		spec string
		ok   bool
	}{
		{"scenario=zipf:4;workload=disseminate:4;granularity=1024;rep=1", true},
		{"scenario=zipf:4;workload=disseminate:4;granularity=1025;rep=1", false},
		{"scenario=zipf:4;workload=stream:4;granularity=2,20000;rep=1", false},
		{"scenario=zipf:4;workload=swarm:4;granularity=1025;rep=1", true},
	} {
		sw, err := ParseSweep(tc.spec)
		if err != nil {
			t.Fatal(err)
		}
		_, _, err = expandSweep(cfg, sw)
		if tc.ok && err != nil {
			t.Errorf("%s: %v", tc.spec, err)
		}
		if !tc.ok && (err == nil || !strings.Contains(err.Error(), "at most 1024 pieces")) {
			t.Errorf("%s: err = %v, want the piece bound named", tc.spec, err)
		}
	}
}

// TestParseSweepFaultAxis pins the fault axis: rates parse, dedup, print in
// canonical position (after churn, before rep), and round-trip.
func TestParseSweepFaultAxis(t *testing.T) {
	sw, err := ParseSweep("fault=0.5,1,2,0.5;scenario=faults:8;churn=2;rep=3")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(sw.FaultRates, []float64{0.5, 1, 2}) {
		t.Fatalf("fault rates = %v", sw.FaultRates)
	}
	if spec := sw.Spec(); spec != "scenario=faults:8;churn=2;fault=0.5,1,2;rep=3" {
		t.Fatalf("canonical spec = %q", spec)
	}
}

// TestSweepFaultRateOnStaticScenarioRejected mirrors the churn-rate rule: a
// non-unit fault rate over a scenario with no fault plan is an error at
// expansion, before any slice deploys.
func TestSweepFaultRateOnStaticScenarioRejected(t *testing.T) {
	sw, err := ParseSweep("scenario=uniform:4;fault=2;rep=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := expandSweep(Config{Seed: 1}.WithDefaults(), sw); err == nil ||
		!strings.Contains(err.Error(), "no faults to scale") {
		t.Fatalf("expandSweep err = %v, want no-faults rejection", err)
	}
	// Rate 1 is the identity and must pass on any scenario.
	sw, err = ParseSweep("scenario=uniform:4;fault=1;rep=1")
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := expandSweep(Config{Seed: 1}.WithDefaults(), sw); err != nil {
		t.Fatalf("identity fault rate rejected: %v", err)
	}
}

// TestSweepFaultAxisExpansion pins the canonical nesting: fault varies
// inside churn and outside rep, every cell carries its fault rate, and the
// rated scenario actually reaches the plan.
func TestSweepFaultAxisExpansion(t *testing.T) {
	sw, err := ParseSweep("scenario=faults:4;fault=0.5,2;rep=2")
	if err != nil {
		t.Fatal(err)
	}
	plans, _, err := expandSweep(Config{Seed: 1}.WithDefaults(), sw)
	if err != nil {
		t.Fatal(err)
	}
	var got []float64
	for _, p := range plans {
		got = append(got, p.cell.FaultRate)
		if p.sc.Faults == nil {
			t.Fatalf("cell %s lost its fault plan", p.cell.key())
		}
	}
	if !reflect.DeepEqual(got, []float64{0.5, 0.5, 2, 2}) {
		t.Fatalf("fault-rate expansion order = %v", got)
	}
	// The rated plans must differ in intensity on some seed: the 2× world
	// admits at least as many events, and more over enough seeds.
	lo, hi := 0, 0
	for seed := int64(1); seed <= 8; seed++ {
		lo += len(plans[0].sc.Faults(seed))
		hi += len(plans[2].sc.Faults(seed))
	}
	if hi <= lo {
		t.Fatalf("rate 2 drew %d events vs %d at rate 0.5 — rating not applied", hi, lo)
	}
}

// TestSweepFaultCellKeysDiffer pins seed independence: the fault rate is
// part of the cell's seed identity, so rated cells simulate different
// worlds — and the rate-1 key stays stable whether or not a fault axis was
// specified (cells of historical sweeps keep their seeds).
func TestSweepFaultCellKeysDiffer(t *testing.T) {
	a := SweepCell{Scenario: "faults:8", Workload: "swarm:8", ChurnRate: 1, FaultRate: 1}
	b := a
	b.FaultRate = 2
	if a.key() == b.key() {
		t.Fatal("fault rate absent from the cell key")
	}
	if !strings.Contains(a.key(), "|fault=1|") {
		t.Fatalf("key = %q, want explicit fault coordinate", a.key())
	}
}

// TestFigFaultResilience runs the robustness figure end-to-end on a small
// faulty scenario and checks its shape: one label per swept rate, the three
// series, and a scenario without faults rejected rather than substituted.
func TestFigFaultResilience(t *testing.T) {
	sc, err := scenario.Parse("faults:8")
	if err != nil {
		t.Fatal(err)
	}
	fig, err := figure("figfault", Config{Seed: 2007, Reps: 1, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Labels) != len(FaultFigureRates) {
		t.Fatalf("labels = %v", fig.Labels)
	}
	names := make([]string, len(fig.Series))
	for i, s := range fig.Series {
		names[i] = s.Name
	}
	want := []string{"failed flows", "selections degraded", "flows recovered"}
	if !reflect.DeepEqual(names, want) {
		t.Fatalf("series = %v, want %v", names, want)
	}

	static, err := scenario.Parse("uniform:4")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := figure("figfault", Config{Seed: 1, Reps: 1, Scenario: static}); err == nil {
		t.Fatal("figfault accepted a scenario with no fault plan")
	}
}
