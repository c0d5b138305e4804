// Generic sweep engine: grid cells over (scenario × workload × model ×
// granularity × size × pick × choke × churn-rate × fault-rate × rep).
//
// The paper's figures are each a hand-rolled 1-D sweep — granularity for
// Figure 5, selection model for Figure 6 — over per-peer cells, and stay
// rows of their own table (figures.go). Here axis values are data, the
// cross-product expands in one canonical axis order no matter how the axes
// were specified, and every cell's seed derives from its full axis
// coordinates — not its position in the grid — so a cell's simulated world
// is invariant to worker count, shard count, axis ordering, and what else
// happens to share the grid.
//
// (File commentary, deliberately detached from the package clause below:
// doc.go owns the package overview.)

package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"peerlab/internal/core"
	"peerlab/internal/scenario"
	"peerlab/internal/transfer"
	"peerlab/internal/workload"
)

// Sweep describes a grid of workload cells over orthogonal axes. Empty axes
// default as documented per field; the cross-product of the remaining values
// expands in the fixed canonical order scenario → workload → model →
// granularity → size → pick → choke → churn → fault → rep (rep fastest), whatever order
// the axes were written in. Parse a "-sweep" spec with ParseSweep; Spec prints the
// canonical form back.
type Sweep struct {
	// Scenarios lists scenario specs ("table1", "churn:64", ...). Empty
	// means the Config's scenario.
	Scenarios []string
	// Workloads lists workload specs ("swarm:64", ...). Empty means each
	// scenario's workload hint (controller-fanout when it has none).
	Workloads []string
	// Models, when set, forces every flow of the cell's workload to resolve
	// its sink through the named selection model (workload.Workload.With).
	// Empty means flows keep their own sink resolution.
	Models []string
	// Granularities, when set, overrides every flow's transmission
	// granularity (parts). Empty keeps the workload's own.
	Granularities []int
	// Sizes, when set, overrides every flow's payload size, in Mb (the
	// paper's unit). Empty keeps the workload's own.
	Sizes []int
	// Picks, when set, overrides the piece-picking policy of every swept
	// dissemination workload ("rarest", "sequential"); sweeping it over a
	// non-dissemination workload is an error. Empty keeps each workload's
	// own policy.
	Picks []string
	// Chokes, when set, overrides the choking policy ("tft", "none") under
	// the same applicability rule as Picks.
	Chokes []string
	// ChurnRates scales each scenario's membership dynamics
	// (scenario.Scenario.ChurnRate): rate 2 roughly doubles departures per
	// horizon while lease timescales stay fixed. Values other than 1
	// require every swept scenario to be rateable (churn:N). Empty means
	// {1}.
	ChurnRates []float64
	// FaultRates scales each scenario's control-plane fault intensity
	// (scenario.Scenario.FaultRate): rate 2 roughly doubles the blackouts,
	// partitions and loss bursts per horizon while their shapes stay fixed.
	// Values other than 1 require every swept scenario to carry faults
	// (faults:N). Empty means {1}.
	FaultRates []float64
	// Reps is the repetitions per grid point, each its own cell. 0 means
	// the Config's Reps.
	Reps int
}

// sweepModelAll is what the model axis value "all" expands to: the paper's
// Figure 6 lineup, aliased so the two cannot drift apart.
var sweepModelAll = Fig6Models

// sweepModels is the parse-time allowlist of the model axis, built from
// core.StandardModels — the one source of truth for the built-in lineup. A
// typo'd model must not cost a deployed slice before failing.
var sweepModels = func() map[string]bool {
	m := make(map[string]bool)
	for _, name := range core.StandardModels() {
		m[name] = true
	}
	return m
}()

// Grammar sanity bounds. Numeric axis values far beyond any plausible
// experiment (a 10^6-part transmission) are rejected at parse time rather
// than overflowing byte counts downstream. The churn-rate bounds are much
// tighter: the rate divides session/downtime draws against a fixed
// ~10-minute horizon, so values outside [10^-2, 10^2] stop meaning "less/
// more churn" and start degenerating the schedule (a rate of 10^2 already
// cycles a peer hundreds of times per horizon; below 10^-2 no peer ever
// leaves) — and the bounds also keep non-finite floats ("Inf") out of the
// axis.
const (
	axisIntMax  = 1_000_000
	axisRateMax = 100
	axisRateMin = 0.01
)

// ParseSweep parses a sweep grid spec: semicolon-separated axes, each
// "axis=value,value,...". Axes are scenario, workload, model, granularity
// (parts, positive integers), size (Mb, positive integers), pick and choke
// (dissemination policies), churn and fault
// (rate multipliers, positive floats) and rep (a single positive integer).
// "model=all" expands to the Figure 6 lineup. Example:
//
//	scenario=table1,churn:64;model=all;rep=5
//
// Axis order in the spec is irrelevant — the grid always expands in the
// canonical order — each axis may appear at most once, and repeated values
// within an axis collapse to their first occurrence ("model=all,quick-peer"
// runs quick-peer's cells once, not twice: duplicated values share a cell
// key and would simulate the identical world redundantly).
func ParseSweep(spec string) (Sweep, error) {
	var sw Sweep
	seen := map[string]bool{}
	for _, part := range strings.Split(spec, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		name, arg, ok := strings.Cut(part, "=")
		name = strings.TrimSpace(name)
		if !ok || name == "" {
			return Sweep{}, fmt.Errorf("sweep: %q: want axis=value,value,...", part)
		}
		if seen[name] {
			return Sweep{}, fmt.Errorf("sweep: axis %q specified twice", name)
		}
		seen[name] = true
		var values []string
		for _, v := range strings.Split(arg, ",") {
			v = strings.TrimSpace(v)
			if v == "" {
				return Sweep{}, fmt.Errorf("sweep: axis %q has an empty value", name)
			}
			values = append(values, v)
		}
		if values == nil {
			return Sweep{}, fmt.Errorf("sweep: axis %q has no values", name)
		}
		switch name {
		case "scenario":
			sw.Scenarios = values
		case "workload":
			sw.Workloads = values
		case "model":
			for _, v := range values {
				switch {
				case v == "all":
					sw.Models = append(sw.Models, sweepModelAll...)
				case sweepModels[v]:
					sw.Models = append(sw.Models, v)
				default:
					return Sweep{}, fmt.Errorf("sweep: unknown selection model %q (want all, %s)",
						v, strings.Join(sweepModelNames(), ", "))
				}
			}
		case "granularity":
			for _, v := range values {
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 || n > axisIntMax {
					return Sweep{}, fmt.Errorf("sweep: granularity %q: want a part count in [1, %d]", v, axisIntMax)
				}
				sw.Granularities = append(sw.Granularities, n)
			}
		case "size":
			for _, v := range values {
				n, err := strconv.Atoi(v)
				if err != nil || n < 1 || n > axisIntMax {
					return Sweep{}, fmt.Errorf("sweep: size %q: want an Mb count in [1, %d]", v, axisIntMax)
				}
				sw.Sizes = append(sw.Sizes, n)
			}
		case "pick":
			for _, v := range values {
				if !slices.Contains(workload.Picks, v) {
					return Sweep{}, fmt.Errorf("sweep: unknown pick policy %q (want %s)", v, strings.Join(workload.Picks, ", "))
				}
				sw.Picks = append(sw.Picks, v)
			}
		case "choke":
			for _, v := range values {
				if !slices.Contains(workload.Chokes, v) {
					return Sweep{}, fmt.Errorf("sweep: unknown choke policy %q (want %s)", v, strings.Join(workload.Chokes, ", "))
				}
				sw.Chokes = append(sw.Chokes, v)
			}
		case "churn":
			for _, v := range values {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || !(f >= axisRateMin) || f > axisRateMax {
					return Sweep{}, fmt.Errorf("sweep: churn rate %q: want a rate in [%g, %g]", v, axisRateMin, float64(axisRateMax))
				}
				sw.ChurnRates = append(sw.ChurnRates, f)
			}
		case "fault":
			for _, v := range values {
				f, err := strconv.ParseFloat(v, 64)
				if err != nil || !(f >= axisRateMin) || f > axisRateMax {
					return Sweep{}, fmt.Errorf("sweep: fault rate %q: want a rate in [%g, %g]", v, axisRateMin, float64(axisRateMax))
				}
				sw.FaultRates = append(sw.FaultRates, f)
			}
		case "rep":
			if len(values) != 1 {
				return Sweep{}, fmt.Errorf("sweep: rep wants exactly one value, got %d", len(values))
			}
			n, err := strconv.Atoi(values[0])
			if err != nil || n < 1 || n > axisIntMax {
				return Sweep{}, fmt.Errorf("sweep: rep %q: want a count in [1, %d]", values[0], axisIntMax)
			}
			sw.Reps = n
		default:
			return Sweep{}, fmt.Errorf("sweep: unknown axis %q (want scenario, workload, model, granularity, size, pick, choke, churn, fault, rep)", name)
		}
	}
	sw.Scenarios = dedup(sw.Scenarios)
	sw.Workloads = dedup(sw.Workloads)
	sw.Models = dedup(sw.Models)
	sw.Granularities = dedup(sw.Granularities)
	sw.Sizes = dedup(sw.Sizes)
	sw.Picks = dedup(sw.Picks)
	sw.Chokes = dedup(sw.Chokes)
	sw.ChurnRates = dedup(sw.ChurnRates)
	sw.FaultRates = dedup(sw.FaultRates)
	return sw, nil
}

// dedup collapses repeated axis values to their first occurrence, order
// preserved. nil stays nil, so an unspecified axis still reads as "default".
func dedup[T comparable](vals []T) []T {
	if len(vals) < 2 {
		return vals
	}
	seen := make(map[T]bool, len(vals))
	out := make([]T, 0, len(vals))
	for _, v := range vals {
		if !seen[v] {
			seen[v] = true
			out = append(out, v)
		}
	}
	return out
}

// sweepModelNames returns the accepted model names, sorted for error text.
func sweepModelNames() []string {
	names := make([]string, 0, len(sweepModels))
	for n := range sweepModels {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// formatRate prints a churn or fault rate the way the grammar reads it
// back.
func formatRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

// Spec prints the sweep in canonical grammar form: axes in canonical order,
// empty axes omitted. ParseSweep(sw.Spec()) reproduces sw (with "all"
// already expanded), the round-trip the grammar's fuzz test locks in.
func (sw Sweep) Spec() string {
	var parts []string
	add := func(name string, values []string) {
		if len(values) > 0 {
			parts = append(parts, name+"="+strings.Join(values, ","))
		}
	}
	ints := func(ns []int) []string {
		out := make([]string, len(ns))
		for i, n := range ns {
			out[i] = strconv.Itoa(n)
		}
		return out
	}
	add("scenario", sw.Scenarios)
	add("workload", sw.Workloads)
	add("model", sw.Models)
	add("granularity", ints(sw.Granularities))
	add("size", ints(sw.Sizes))
	add("pick", sw.Picks)
	add("choke", sw.Chokes)
	fmtRates := func(rs []float64) []string {
		out := make([]string, len(rs))
		for i, r := range rs {
			out[i] = formatRate(r)
		}
		return out
	}
	add("churn", fmtRates(sw.ChurnRates))
	add("fault", fmtRates(sw.FaultRates))
	if sw.Reps > 0 {
		parts = append(parts, "rep="+strconv.Itoa(sw.Reps))
	}
	return strings.Join(parts, ";")
}

// SweepCell names one grid point: the axis coordinates of a single workload
// repetition. Its key — not its position in the grid — derives the cell's
// seed.
type SweepCell struct {
	Scenario  string  `json:"scenario"`
	Workload  string  `json:"workload"`
	Model     string  `json:"model,omitempty"`
	Parts     int     `json:"parts,omitempty"`
	SizeMb    int     `json:"size_mb,omitempty"`
	Pick      string  `json:"pick,omitempty"`
	Choke     string  `json:"choke,omitempty"`
	ChurnRate float64 `json:"churn_rate"`
	FaultRate float64 `json:"fault_rate"`
	Rep       int     `json:"rep"`
}

// key is the cell's seed-derivation identity: every axis coordinate, in
// canonical order. Two sweeps that contain the same cell — whatever else
// they sweep — simulate it in the identical world. The pick/choke segment
// is appended only when either axis is set: a cell that predates the
// dissemination axes must keep its key, and with it the seed every
// committed sweep golden derives from.
func (c SweepCell) key() string {
	k := fmt.Sprintf("sweep|scenario=%s|workload=%s|model=%s|parts=%d|size=%d|churn=%s|fault=%s|rep=%d",
		c.Scenario, c.Workload, c.Model, c.Parts, c.SizeMb, formatRate(c.ChurnRate), formatRate(c.FaultRate), c.Rep)
	if c.Pick != "" || c.Choke != "" {
		k += fmt.Sprintf("|pick=%s|choke=%s", c.Pick, c.Choke)
	}
	return k
}

// SweepRecord is one executed cell's JSON row: the axis coordinates plus the
// cell's workload summary. Warnings carries operator-visible warnings the
// cell's flows logged (relaunch-budget exhaustion), captured per cell so
// parallel sweeps don't interleave them on stderr.
type SweepRecord struct {
	SweepCell
	Summary  WorkloadSummary `json:"summary"`
	Warnings []string        `json:"warnings,omitempty"`
}

// SweepMarginal aggregates every cell sharing one value of one axis — the
// per-axis view a downstream plot reads directly (the churn marginal is the
// "selection quality vs churn rate" figure). Percentages are over all flows
// of the contributing cells; the transmission mean weighs each cell by its
// completed flows.
type SweepMarginal struct {
	Axis                    string  `json:"axis"`
	Value                   string  `json:"value"`
	Cells                   int     `json:"cells"`
	Flows                   int     `json:"flows"`
	FailedPct               float64 `json:"failed_pct"`
	LaggedPct               float64 `json:"lagged_pct"`
	StalePct                float64 `json:"stale_pct"`
	DegradedPct             float64 `json:"degraded_pct"`
	RecoveredPct            float64 `json:"recovered_pct"`
	MeanTransmissionSeconds float64 `json:"mean_transmission_seconds"`
	// Dissemination views, omitted (zero) for single-round workloads.
	// PairingRatio is like/cross pair bytes across the contributing cells —
	// above 1 means bandwidth classes trade within themselves (clustering).
	// StallsPerFlow is total playback stalls over all flows; StalledPct is
	// the share of flows that stalled at least once — the viewer-experience
	// number (total stalls concentrate on capacity-starved tail peers, the
	// stalled share is where picking policy shows).
	PairingRatio  float64 `json:"pairing_ratio,omitempty"`
	StallsPerFlow float64 `json:"stalls_per_flow,omitempty"`
	StalledPct    float64 `json:"stalled_pct,omitempty"`
}

// SweepReport is RunSweep's result: the canonical spec, every cell's record
// in canonical expansion order, and the marginal summaries of every axis
// that actually varies.
type SweepReport struct {
	Sweep     string          `json:"sweep"`
	Seed      int64           `json:"seed"`
	Reps      int             `json:"reps"`
	Cells     []SweepRecord   `json:"cells"`
	Marginals []SweepMarginal `json:"marginals,omitempty"`
}

// sweepPlan is one cell plus everything resolved at expansion time: the
// (possibly churn- and fault-rated) scenario and the (possibly overridden)
// workload it runs.
type sweepPlan struct {
	cell SweepCell
	sc   scenario.Scenario
	w    workload.Workload
}

// expandSweep resolves the axes against cfg's defaults and expands the
// cross-product in canonical order, returning the plans and the resolved
// per-point repetition count (the one place that defaulting happens).
func expandSweep(cfg Config, sw Sweep) ([]sweepPlan, int, error) {
	// ParseSweep deduped raw spec strings; parsing normalizes further
	// ("uniform:08" and "uniform:8" are one scenario), so dedup again by
	// canonical name — the identity that enters the cell key — or the same
	// world would be simulated twice and double-weight every marginal.
	scenarios := make([]scenario.Scenario, 0, len(sw.Scenarios))
	if len(sw.Scenarios) == 0 {
		scenarios = append(scenarios, cfg.Scenario)
	} else {
		seen := make(map[string]bool, len(sw.Scenarios))
		for _, spec := range sw.Scenarios {
			sc, err := scenario.Parse(spec)
			if err != nil {
				return nil, 0, err
			}
			if seen[sc.Name] {
				continue
			}
			seen[sc.Name] = true
			scenarios = append(scenarios, sc)
		}
	}
	rates := axisOr(sw.ChurnRates, 1)
	for _, r := range rates {
		if r == 1 {
			continue
		}
		for _, sc := range scenarios {
			if sc.ChurnRate == nil {
				return nil, 0, fmt.Errorf("sweep: churn rate %s over scenario %q, which has no dynamics to scale (want churn:N)",
					formatRate(r), sc.Name)
			}
		}
	}
	faultRates := axisOr(sw.FaultRates, 1)
	for _, r := range faultRates {
		if r == 1 {
			continue
		}
		for _, sc := range scenarios {
			if sc.FaultRate == nil {
				return nil, 0, fmt.Errorf("sweep: fault rate %s over scenario %q, which has no faults to scale (want faults:N)",
					formatRate(r), sc.Name)
			}
		}
	}
	// The workload axis defaults with RunWorkload's precedence: an explicit
	// Config.Workload wins, then each scenario's own hint (churn:N hints
	// swarm:N), then controller-fanout. The resolved name — not how it was
	// obtained — enters the cell key, so a sweep that spells the hint out
	// is cell-for-cell identical to one that relies on it.
	workloadsFor := func(sc scenario.Scenario) ([]workload.Workload, error) {
		if len(sw.Workloads) == 0 {
			w, err := ResolveWorkload(cfg.Workload, sc)
			return []workload.Workload{w}, err
		}
		ws := make([]workload.Workload, 0, len(sw.Workloads))
		seen := make(map[string]bool, len(sw.Workloads))
		for _, spec := range sw.Workloads {
			w, err := workload.Parse(spec)
			if err != nil {
				return nil, err
			}
			if seen[w.Name] {
				// Same normalized-name dedup as the scenario axis.
				continue
			}
			seen[w.Name] = true
			ws = append(ws, w)
		}
		return ws, nil
	}
	models := axisOr(sw.Models, "")
	grans := axisOr(sw.Granularities, 0)
	sizes := axisOr(sw.Sizes, 0)
	picks := axisOr(sw.Picks, "")
	chokes := axisOr(sw.Chokes, "")
	reps := sw.Reps
	if reps <= 0 {
		reps = cfg.Reps
	}

	var plans []sweepPlan
	for _, sc := range scenarios {
		ws, err := workloadsFor(sc)
		if err != nil {
			return nil, 0, err
		}
		// Rating a scenario re-synthesizes its full catalog closure, so it
		// is computed once per (scenario, churn rate, fault rate), not once
		// per inner-axis combination. Churn rating applies first and fault
		// rating to its result; each hook rebuilds the whole scenario, so
		// what matters is that both survive the round trip (ChurnRated
		// carries no FaultRate today, which is why faults:N owns its own
		// membership schedule instead of stacking on churn:N).
		type ratePair struct{ churn, fault float64 }
		ratedBy := make(map[ratePair]scenario.Scenario, len(rates)*len(faultRates))
		for _, rate := range rates {
			churned := sc
			if rate != 1 {
				churned = sc.ChurnRate(rate)
			}
			for _, frate := range faultRates {
				cellSc := churned
				if frate != 1 {
					cellSc = churned.FaultRate(frate)
				}
				ratedBy[ratePair{rate, frate}] = cellSc
			}
		}
		for _, w := range ws {
			for _, model := range models {
				// Axis applicability is validated where the workload is in
				// hand: the policy axes parameterize the piece engine, and
				// the model axis rewires sink selection — meaningless for
				// dissemination flows, whose sinks are the downloaders
				// themselves. Failing here costs nothing; failing inside a
				// deployed cell costs a simulated slice.
				if model != "" && w.Disseminate != nil {
					return nil, 0, fmt.Errorf("sweep: model %s over dissemination workload %q (its flows have fixed sinks; sweep pick/choke instead)",
						model, w.Name)
				}
				if (len(sw.Picks) > 0 || len(sw.Chokes) > 0) && w.Disseminate == nil {
					return nil, 0, fmt.Errorf("sweep: pick/choke over workload %q, which has no pieces to police (want disseminate:N / stream:N)", w.Name)
				}
				for _, parts := range grans {
					for _, sizeMb := range sizes {
						sized := 0
						if sizeMb > 0 {
							sized = sizeMb * transfer.Mb
						}
						cellW := w.With(model, parts, sized)
						for _, pick := range picks {
							for _, choke := range chokes {
								policyW := cellW.WithPolicies(pick, choke)
								for _, rate := range rates {
									for _, frate := range faultRates {
										cellSc := ratedBy[ratePair{rate, frate}]
										for rep := 0; rep < reps; rep++ {
											plans = append(plans, sweepPlan{
												cell: SweepCell{
													Scenario:  sc.Name,
													Workload:  w.Name,
													Model:     model,
													Parts:     parts,
													SizeMb:    sizeMb,
													Pick:      pick,
													Choke:     choke,
													ChurnRate: rate,
													FaultRate: frate,
													Rep:       rep,
												},
												sc: cellSc,
												w:  policyW,
											})
										}
									}
								}
							}
						}
					}
				}
			}
		}
	}
	return plans, reps, nil
}

// axisOr returns an axis's values, or the single coordinate an unset axis
// contributes to the grid (the zero value means "keep the workload's own").
func axisOr[T any](vals []T, unset T) []T {
	if len(vals) == 0 {
		return []T{unset}
	}
	return vals
}

// RunSweep expands the sweep against cfg's defaults and executes every cell
// — one workload repetition on its own freshly deployed slice — across the
// worker pool. Cell seeds derive from (cfg.Seed, cell key), so the report is
// bit-identical at any Workers or Shards value and for any axis ordering of
// the originating spec, and a cell's record does not change when other axis
// values join the grid.
func RunSweep(cfg Config, sw Sweep) (*SweepReport, error) {
	cfg = cfg.WithDefaults()
	plans, reps, err := expandSweep(cfg, sw)
	if err != nil {
		return nil, err
	}
	if len(plans) == 0 {
		return nil, fmt.Errorf("sweep: empty grid")
	}
	records, err := runCellsSeeded(cfg, len(plans),
		func(i int) int64 { return deriveSeed(cfg.Seed, plans[i].cell.key(), 0) },
		func(i int, cellCfg Config) (SweepRecord, error) {
			return sweepCell(cellCfg, plans[i])
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: sweep: %w", err)
	}
	return &SweepReport{
		Sweep:     sw.Spec(),
		Seed:      cfg.Seed,
		Reps:      reps,
		Cells:     records,
		Marginals: marginals(records),
	}, nil
}

// sweepCell executes one grid point: deploy the cell's scenario, run its
// workload once, and fold the flows into the cell's record. Warnings from
// inside the cell (relaunch-budget exhaustion) are collected on the record
// rather than a shared logger — with dozens of cells in flight, interleaved
// stderr lines would be garbage, and attributing a warning to its cell is
// exactly what an operator reading a sweep report needs.
func sweepCell(cellCfg Config, p sweepPlan) (SweepRecord, error) {
	var (
		mu       sync.Mutex
		warnings []string
	)
	cellCfg.Scenario = p.sc
	cellCfg.Logf = func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		warnings = append(warnings, fmt.Sprintf(format, args...))
	}
	res, err := workloadCell(cellCfg, p.w, p.cell.Rep)
	if err != nil {
		return SweepRecord{}, fmt.Errorf("cell %s: %w", p.cell.key(), err)
	}
	rec := SweepRecord{SweepCell: p.cell, Summary: summarize(res.recs), Warnings: warnings}
	rec.Summary.addCell(res)
	return rec, nil
}

// sweepAxisViews lists the marginal-bearing axes with their value
// projection, in canonical order. Rep is deliberately absent: repetitions
// are samples of the same point, not a studied axis.
var sweepAxisViews = []struct {
	name string
	of   func(r SweepRecord) string
}{
	{"scenario", func(r SweepRecord) string { return r.Scenario }},
	{"workload", func(r SweepRecord) string { return r.Workload }},
	{"model", func(r SweepRecord) string { return r.Model }},
	{"granularity", func(r SweepRecord) string { return strconv.Itoa(r.Parts) }},
	{"size", func(r SweepRecord) string { return strconv.Itoa(r.SizeMb) }},
	{"pick", func(r SweepRecord) string { return r.Pick }},
	{"choke", func(r SweepRecord) string { return r.Choke }},
	{"churn", func(r SweepRecord) string { return formatRate(r.ChurnRate) }},
	{"fault", func(r SweepRecord) string { return formatRate(r.FaultRate) }},
}

// marginals folds the records into per-axis summaries, one SweepMarginal
// per value of every axis that takes at least two distinct values. Values
// keep their first-appearance (canonical expansion) order.
func marginals(records []SweepRecord) []SweepMarginal {
	var out []SweepMarginal
	for _, ax := range sweepAxisViews {
		var order []string
		groups := map[string][]SweepRecord{}
		for _, r := range records {
			v := ax.of(r)
			if _, ok := groups[v]; !ok {
				order = append(order, v)
			}
			groups[v] = append(groups[v], r)
		}
		if len(order) < 2 {
			continue
		}
		for _, v := range order {
			m := SweepMarginal{Axis: ax.name, Value: v}
			var completed, stalls, stalled int
			var xmitWeighted float64
			var like, cross int64
			for _, r := range groups[v] {
				m.Cells++
				m.Flows += r.Summary.Flows
				m.FailedPct += float64(r.Summary.FailedFlows)
				m.LaggedPct += float64(r.Summary.SelectionsLagged)
				m.StalePct += float64(r.Summary.SelectionsStale)
				m.DegradedPct += float64(r.Summary.SelectionsDegraded)
				m.RecoveredPct += float64(r.Summary.FlowsRecovered)
				stalls += r.Summary.TotalStalls
				stalled += r.Summary.StalledFlows
				like += r.Summary.LikePairBytes
				cross += r.Summary.CrossPairBytes
				c := r.Summary.Flows - r.Summary.FailedFlows
				completed += c
				xmitWeighted += r.Summary.MeanTransmissionSeconds * float64(c)
			}
			if m.Flows > 0 {
				m.FailedPct = 100 * m.FailedPct / float64(m.Flows)
				m.LaggedPct = 100 * m.LaggedPct / float64(m.Flows)
				m.StalePct = 100 * m.StalePct / float64(m.Flows)
				m.DegradedPct = 100 * m.DegradedPct / float64(m.Flows)
				m.RecoveredPct = 100 * m.RecoveredPct / float64(m.Flows)
			}
			if completed > 0 {
				m.MeanTransmissionSeconds = xmitWeighted / float64(completed)
			}
			if cross > 0 {
				m.PairingRatio = float64(like) / float64(cross)
			}
			if m.Flows > 0 {
				m.StallsPerFlow = float64(stalls) / float64(m.Flows)
				m.StalledPct = 100 * float64(stalled) / float64(m.Flows)
			}
			out = append(out, m)
		}
	}
	return out
}
