// Generic sweep engine: grid cells over the axes sweepAxes declares, times
// rep, each seeded from its full axis coordinates (DESIGN.md "Experiment
// ownership").

package experiments

import (
	"fmt"
	"slices"
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
// expands in the fixed canonical order of sweepAxes, then rep (rep fastest),
// whatever order the axes were written in. Parse a "-sweep" spec with
// ParseSweep; Spec prints the canonical form back.
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

// sweepAxis declares one studied axis: the one place its grammar, canonical
// spelling, expansion, marginal and output column are written down.
type sweepAxis struct {
	name   string // the spec's axis name, and the marginals' Axis
	column string // SweepCell's JSON name for the coordinate
	// add validates one spec value and joins what it stands for to the
	// sweep, keeping the first occurrence of a repeated value.
	add func(sw *Sweep, v string) error
	// values spells the sweep's values as the grammar spells them; coord
	// spells a cell's coordinate the same way.
	values func(sw Sweep) []string
	coord  func(c SweepCell) string
	// expand crosses cell templates with the axis's values, the axis
	// varying fastest; an unset axis leaves the templates as they are.
	// expandSweep resolves the scenario and workload axes itself.
	expand func(sw Sweep, cells []SweepCell) []SweepCell
}

// sweepAxes lists every studied axis in canonical expansion order. A new
// axis is one row here plus one SweepCell field. Rep stays outside: it
// counts samples of one point, and no marginal groups by it.
var sweepAxes = []sweepAxis{
	axis("scenario", "scenario", func(sw *Sweep) *[]string { return &sw.Scenarios },
		func(c *SweepCell) *string { return &c.Scenario }, single, identity),
	axis("workload", "workload", func(sw *Sweep) *[]string { return &sw.Workloads },
		func(c *SweepCell) *string { return &c.Workload }, single, identity),
	// "all" stands for the paper's Figure 6 lineup.
	axis("model", "model", func(sw *Sweep) *[]string { return &sw.Models },
		func(c *SweepCell) *string { return &c.Model }, func(v string) ([]string, error) {
			if v == "all" {
				return Fig6Models, nil
			}
			return oneOf("selection model", append([]string{"all"}, core.StandardModels()...))(v)
		}, identity),
	axis("granularity", "parts", func(sw *Sweep) *[]int { return &sw.Granularities },
		func(c *SweepCell) *int { return &c.Parts }, bounded("granularity", "a part count", strconv.Atoi, 1, axisIntMax), strconv.Itoa),
	axis("size", "size_mb", func(sw *Sweep) *[]int { return &sw.Sizes },
		func(c *SweepCell) *int { return &c.SizeMb }, bounded("size", "an Mb count", strconv.Atoi, 1, axisIntMax), strconv.Itoa),
	axis("pick", "pick", func(sw *Sweep) *[]string { return &sw.Picks },
		func(c *SweepCell) *string { return &c.Pick }, oneOf("pick policy", workload.Picks), identity),
	axis("choke", "choke", func(sw *Sweep) *[]string { return &sw.Chokes },
		func(c *SweepCell) *string { return &c.Choke }, oneOf("choke policy", workload.Chokes), identity),
	axis("churn", "churn_rate", func(sw *Sweep) *[]float64 { return &sw.ChurnRates },
		func(c *SweepCell) *float64 { return &c.ChurnRate }, bounded("churn rate", "a rate", parseFloat, axisRateMin, axisRateMax), formatRate),
	axis("fault", "fault_rate", func(sw *Sweep) *[]float64 { return &sw.FaultRates },
		func(c *SweepCell) *float64 { return &c.FaultRate }, bounded("fault rate", "a rate", parseFloat, axisRateMin, axisRateMax), formatRate),
}

// axis builds a row from the axis's Sweep field (list), its SweepCell field
// (at), a parser from one spec value to the values it stands for, and the
// spelling of one value.
func axis[T comparable](name, column string, list func(*Sweep) *[]T, at func(*SweepCell) *T,
	parse func(string) ([]T, error), format func(T) string) sweepAxis {
	return sweepAxis{
		name: name, column: column,
		add: func(sw *Sweep, v string) error {
			vals, err := parse(v)
			for _, x := range vals {
				if l := list(sw); !slices.Contains(*l, x) {
					*l = append(*l, x)
				}
			}
			return err
		},
		values: func(sw Sweep) []string {
			var out []string
			for _, x := range *list(&sw) {
				out = append(out, format(x))
			}
			return out
		},
		coord: func(c SweepCell) string { return format(*at(&c)) },
		expand: func(sw Sweep, cells []SweepCell) []SweepCell {
			vals := *list(&sw)
			if len(vals) == 0 {
				return cells
			}
			out := make([]SweepCell, 0, len(cells)*len(vals))
			for _, c := range cells {
				for _, x := range vals {
					*at(&c) = x
					out = append(out, c)
				}
			}
			return out
		},
	}
}

// single accepts any value: scenario and workload specs are parsed by their
// own packages when the grid expands.
func single(v string) ([]string, error) { return []string{v}, nil }

func identity(v string) string { return v }

// oneOf accepts a value from a fixed list; a typo'd name must not cost a
// deployed slice before failing.
func oneOf(noun string, allowed []string) func(string) ([]string, error) {
	return func(v string) ([]string, error) {
		if !slices.Contains(allowed, v) {
			return nil, fmt.Errorf("sweep: unknown %s %q (want %s)", noun, v, strings.Join(allowed, ", "))
		}
		return []string{v}, nil
	}
}

// bounded accepts a number in [lo, hi]; the negated lower test also turns
// away NaN.
func bounded[T int | float64](noun, want string, parse func(string) (T, error), lo, hi T) func(string) ([]T, error) {
	return func(v string) ([]T, error) {
		n, err := parse(v)
		if err != nil || !(n >= lo) || n > hi {
			return nil, fmt.Errorf("sweep: %s %q: want %s in [%v, %v]", noun, v, want, lo, hi)
		}
		return []T{n}, nil
	}
}

func parseFloat(v string) (float64, error) { return strconv.ParseFloat(v, 64) }

// formatRate prints a churn or fault rate the way the grammar reads it
// back.
func formatRate(r float64) string { return strconv.FormatFloat(r, 'g', -1, 64) }

// SweepAxisNames lists the grammar's axis names, rep last, for help and
// error text.
func SweepAxisNames() string {
	names := make([]string, 0, len(sweepAxes)+1)
	for _, ax := range sweepAxes {
		names = append(names, ax.name)
	}
	return strings.Join(append(names, "rep"), ", ")
}

// SweepColumns names the studied axes' columns, spelled as SweepCell's JSON
// spells them; SweepCell.Coordinates gives a cell's values in this order.
func SweepColumns() []string {
	cols := make([]string, len(sweepAxes))
	for i, ax := range sweepAxes {
		cols[i] = ax.column
	}
	return cols
}

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
		if name == "rep" {
			if len(values) != 1 {
				return Sweep{}, fmt.Errorf("sweep: rep wants exactly one value, got %d", len(values))
			}
			n, err := bounded("rep", "a count", strconv.Atoi, 1, axisIntMax)(values[0])
			if err != nil {
				return Sweep{}, err
			}
			sw.Reps = n[0]
			continue
		}
		i := slices.IndexFunc(sweepAxes, func(ax sweepAxis) bool { return ax.name == name })
		if i < 0 {
			return Sweep{}, fmt.Errorf("sweep: unknown axis %q (want %s)", name, SweepAxisNames())
		}
		for _, v := range values {
			if err := sweepAxes[i].add(&sw, v); err != nil {
				return Sweep{}, err
			}
		}
	}
	return sw, nil
}

// Spec prints the sweep in canonical grammar form: axes in canonical order,
// empty axes omitted. ParseSweep(sw.Spec()) reproduces sw (with "all"
// already expanded), the round-trip the grammar's fuzz test locks in.
func (sw Sweep) Spec() string {
	var parts []string
	for _, ax := range sweepAxes {
		if values := ax.values(sw); len(values) > 0 {
			parts = append(parts, ax.name+"="+strings.Join(values, ","))
		}
	}
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

// Coordinates spells the cell's coordinate on every studied axis, in
// SweepColumns order.
func (c SweepCell) Coordinates() []string {
	out := make([]string, len(sweepAxes))
	for i, ax := range sweepAxes {
		out[i] = ax.coord(c)
	}
	return out
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
	scenarios, err := parseUnique(sw.Scenarios, scenario.Parse, func(sc scenario.Scenario) string { return sc.Name })
	if err != nil {
		return nil, 0, err
	}
	if len(scenarios) == 0 {
		scenarios = append(scenarios, cfg.Scenario)
	}
	workloads, err := parseUnique(sw.Workloads, workload.Parse, func(w workload.Workload) string { return w.Name })
	if err != nil {
		return nil, 0, err
	}
	// The axes after the workload axis expand once into cell templates;
	// each (scenario, workload) pair fills in its names and reps.
	templates := []SweepCell{{ChurnRate: 1, FaultRate: 1}}
	for _, ax := range sweepAxes[2:] {
		templates = ax.expand(sw, templates)
	}
	reps := sw.Reps
	if reps <= 0 {
		reps = cfg.Reps
	}

	var plans []sweepPlan
	for _, sc := range scenarios {
		// The workload axis defaults with RunWorkload's precedence: an
		// explicit Config.Workload wins, then each scenario's own hint
		// (churn:N hints swarm:N), then controller-fanout. The resolved
		// name — not how it was obtained — enters the cell key, so a sweep
		// that spells the hint out is cell-for-cell identical to one that
		// relies on it.
		ws := workloads
		if len(ws) == 0 {
			w, err := ResolveWorkload(cfg.Workload, sc)
			if err != nil {
				return nil, 0, err
			}
			ws = []workload.Workload{w}
		}
		// Rating a scenario re-synthesizes its full catalog closure, so it
		// is computed once per (scenario, churn rate, fault rate), not once
		// per cell.
		type ratePair struct{ churn, fault float64 }
		rated := map[ratePair]scenario.Scenario{}
		for _, w := range ws {
			for _, cell := range templates {
				// Axis applicability is validated where the workload is in
				// hand: the policy axes parameterize the piece engine, and
				// the model axis rewires sink selection — meaningless for
				// dissemination flows, whose sinks are the downloaders
				// themselves. Failing here costs nothing; failing inside a
				// deployed cell costs a simulated slice.
				switch dissem := w.Disseminate != nil; {
				case cell.Model != "" && dissem:
					return nil, 0, fmt.Errorf("sweep: model %s over dissemination workload %q (its flows have fixed sinks; sweep pick/choke instead)",
						cell.Model, w.Name)
				case (cell.Pick != "" || cell.Choke != "") && !dissem:
					return nil, 0, fmt.Errorf("sweep: pick/choke over workload %q, which has no pieces to police (want disseminate:N / stream:N)", w.Name)
				case cell.Parts > transfer.MaxPieces && dissem:
					return nil, 0, fmt.Errorf("sweep: granularity %d over dissemination workload %q (the piece engine runs at most %d pieces)",
						cell.Parts, w.Name, transfer.MaxPieces)
				}
				rp := ratePair{cell.ChurnRate, cell.FaultRate}
				cellSc, ok := rated[rp]
				if !ok {
					if cellSc, err = rateScenario(sc, rp.churn, rp.fault); err != nil {
						return nil, 0, err
					}
					rated[rp] = cellSc
				}
				cellW := w.With(cell.Model, cell.Parts, cell.SizeMb*transfer.Mb).WithPolicies(cell.Pick, cell.Choke)
				cell.Scenario, cell.Workload = sc.Name, w.Name
				for cell.Rep = 0; cell.Rep < reps; cell.Rep++ {
					plans = append(plans, sweepPlan{cell: cell, sc: cellSc, w: cellW})
				}
			}
		}
	}
	return plans, reps, nil
}

// parseUnique parses every spec, keeping the first of any that normalize to
// one name.
func parseUnique[T any](specs []string, parse func(string) (T, error), name func(T) string) ([]T, error) {
	var out []T
	seen := map[string]bool{}
	for _, spec := range specs {
		v, err := parse(spec)
		if err != nil {
			return nil, err
		}
		if !seen[name(v)] {
			seen[name(v)] = true
			out = append(out, v)
		}
	}
	return out, nil
}

// rateScenario applies a cell's churn and fault rates to its scenario. A
// rate other than 1 over a scenario with nothing to scale is an error: a
// silent no-op would make the marginals lie. Churn rating applies first and
// fault rating to its result; each hook rebuilds the whole scenario
// (ChurnRated carries no FaultRate today, which is why faults:N owns its
// own membership schedule instead of stacking on churn:N).
func rateScenario(sc scenario.Scenario, churn, fault float64) (scenario.Scenario, error) {
	if churn != 1 {
		if sc.ChurnRate == nil {
			return sc, fmt.Errorf("sweep: churn rate %s over scenario %q, which has no dynamics to scale (want churn:N)",
				formatRate(churn), sc.Name)
		}
		sc = sc.ChurnRate(churn)
	}
	if fault != 1 {
		if sc.FaultRate == nil {
			return sc, fmt.Errorf("sweep: fault rate %s over scenario %q, which has no faults to scale (want faults:N)",
				formatRate(fault), sc.Name)
		}
		sc = sc.FaultRate(fault)
	}
	return sc, nil
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
	cellCfg.logf = func(format string, args ...any) {
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

// marginals folds the records into per-axis summaries, one SweepMarginal
// per value of every axis that takes at least two distinct values. Values
// keep their first-appearance (canonical expansion) order.
func marginals(records []SweepRecord) []SweepMarginal {
	var out []SweepMarginal
	for _, ax := range sweepAxes {
		var order []string
		groups := map[string][]SweepRecord{}
		for _, r := range records {
			v := ax.coord(r.SweepCell)
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
