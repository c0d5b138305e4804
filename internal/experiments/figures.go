// Figures as data: every figure is a row of paperFigures or marginalFigures,
// and the registry is derived from the two (DESIGN.md "Experiment
// ownership").

package experiments

import (
	"errors"
	"fmt"
	"strings"
	"sync"

	"peerlab/internal/metrics"
	"peerlab/internal/scenario"
	"peerlab/internal/transfer"
	"peerlab/internal/workload"
)

// FigureSpec is one registry row: a figure's key, its generator, and the
// scenario spec it measures when none is configured ("" = whatever the
// Config names, Table 1 by default).
type FigureSpec struct {
	Name     string
	Run      func(Config) (*metrics.Figure, error)
	Scenario string
}

// Figures lists every figure in presentation order, one entry per table
// row: the one list behind RunFigures and the CLI's default-scenario rewrite
// and help text. The rows with no world of their own are the paper's suite.
var Figures = func() []FigureSpec {
	var specs []FigureSpec
	for i := range paperFigures {
		f := &paperFigures[i]
		specs = append(specs, FigureSpec{Name: f.name, Run: f.run})
	}
	for i := range marginalFigures {
		f := &marginalFigures[i]
		specs = append(specs, FigureSpec{Name: f.name, Run: f.run, Scenario: f.scenario})
	}
	return specs
}()

// FigureByName returns the registry row with the given key.
func FigureByName(name string) (FigureSpec, bool) {
	for _, f := range Figures {
		if f.Name == name {
			return f, true
		}
	}
	return FigureSpec{}, false
}

// ExperimentNames renders the accepted -experiment values for help and
// error text: "all, table1", the suite as a first..last range, then every
// other figure by name.
func ExperimentNames() string {
	var suite, rest []string
	for _, f := range Figures {
		if f.Scenario == "" {
			suite = append(suite, f.Name)
		} else {
			rest = append(rest, f.Name)
		}
	}
	names := append([]string{"all", "table1", suite[0] + ".." + suite[len(suite)-1]}, rest...)
	return strings.Join(names, ", ")
}

// ErrUnknownExperiment is what RunFigures wraps for a name that is neither
// "all", "table1" nor a Figures key — a usage error, reported before any
// cell runs.
var ErrUnknownExperiment = errors.New("unknown experiment")

// RunFigures regenerates the named exhibits in the order given: "table1",
// any Figures key, or "all" — Table 1 plus the paper's Figures 2–7,
// expanded in place — over one worker pool of cfg.Workers slots and one
// batch memo, so two views of one cell batch simulate it once.
func RunFigures(cfg Config, names []string) (*Suite, error) {
	suite := &Suite{}
	var specs []FigureSpec
	for _, name := range names {
		switch f, ok := FigureByName(name); {
		case name == "all":
			suite.Table1 = Table1()
			for _, f := range Figures {
				if f.Scenario == "" {
					specs = append(specs, f)
				}
			}
		case name == "table1":
			suite.Table1 = Table1()
		case ok:
			specs = append(specs, f)
		default:
			return nil, fmt.Errorf("%w %q (want %s)", ErrUnknownExperiment, name, ExperimentNames())
		}
	}
	// Scenario and Reps stay as given: a marginal figure substitutes its own
	// default world for an unset one.
	cfg.pool = newWorkerPool(cfg.Workers)
	cfg.memo = &batchMemo{}
	suite.Figures = make([]SuiteFigure, len(specs))
	errs := make([]error, len(specs))
	var wg sync.WaitGroup
	for i, f := range specs {
		wg.Add(1)
		suite.Figures[i].Name = f.Name
		go func() {
			defer wg.Done()
			suite.Figures[i].Figure, errs[i] = f.Run(cfg)
		}()
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	return suite, nil
}

// paperFigure is one of the paper's Figures 2–7 as data: a batch of
// independent cells — one per (group, label, repetition), expanded row-major
// in that order — each returning a short vector of measures, averaged over
// the repetitions and plotted one series per (group, measure) pair.
type paperFigure struct {
	name, title, unit string // name prefixes every error
	// batch tags the cells' seeds: cell i runs on deriveSeed(seed, batch, i),
	// the layout every committed figure value depends on. Rows that name the
	// same batch are views of the same cells — they must agree on groups,
	// labels and cell — and one RunFigures call simulates it once.
	batch string
	// groups are the series groups — the granularities of Figures 5 and 6 —
	// each handing its part count to the cell; nil is one unnamed whole-file
	// group.
	groups []figureGroup
	// labels fixes the X axis (Figure 6's models); nil is the scenario's
	// measured peers.
	labels []string
	// cell measures one point. repsInCell marks a cell that runs its own
	// cfg.Reps repetitions inside one warmed-up world (Figure 6): its batch
	// has no repetition axis.
	cell       func(cfg Config, parts int, label string, rep int) ([]float64, error)
	repsInCell bool
	// series names which measure of the cell's vector each series plots; a
	// group's name prefixes it.
	series []figureSeries
}

type figureGroup struct {
	name  string
	parts int
}

type figureSeries struct {
	name    string
	measure int
}

// wholeFile is the group of a figure that does not sweep granularity.
var wholeFile = []figureGroup{{"", 1}}

// Figures 3 and 4 share one batch: its cell, and the seed tag their
// committed values derive from.
var transfer50Mb = transferCell(50 * transfer.Mb)

const batch50Mb = "fig50mb"

// The paper's figures, one row each.
var paperFigures = []paperFigure{
	{name: "fig2", title: "Figure 2 — Time in receiving the petition for file transmission", unit: "seconds",
		batch: "fig2", cell: petitionCell,
		series: []figureSeries{{"petition time", 0}}},
	// Figures 3 and 4 are two views of the very same 50 Mb transfers (one
	// part of the paper's larger files): transmission time and the time to
	// complete the reception of the last Mb.
	{name: "fig3", title: "Figure 3 — Transmission time for a file of 50 Mb", unit: "minutes",
		batch: batch50Mb, cell: transfer50Mb,
		series: []figureSeries{{"transmission time", 0}}},
	{name: "fig4", title: "Figure 4 — Transmission time of the last Mb", unit: "seconds",
		batch: batch50Mb, cell: transfer50Mb,
		series: []figureSeries{{"last Mb", 1}}},
	// The paper's hand-rolled granularity sweep.
	{name: "fig5", title: "Figure 5 — 100 Mb file: whole vs 4 parts vs 16 parts", unit: "minutes",
		batch: "fig5", cell: transferCell(100 * transfer.Mb),
		groups: []figureGroup{{"complete file", 1}, {"division into 4 parts", 4}, {"division into 16 parts", 16}},
		series: []figureSeries{{"", 0}}},
	// The paper's model sweep: per-part transmission time of a 1 Mb file
	// when the target peer is chosen by each selection model.
	{name: "fig6", title: "Figure 6 — File transmission time per selection model", unit: "seconds",
		batch: "fig6", cell: selectionCell, repsInCell: true, labels: Fig6Models,
		groups: []figureGroup{{"division into 4 parts", 4}, {"division into 16 parts", 16}},
		series: []figureSeries{{"", 0}}},
	{name: "fig7", title: "Figure 7 — Just execution vs transmission & execution", unit: "minutes",
		batch: "fig7", cell: executionCell,
		series: []figureSeries{{"just execution", 0}, {"transmission & execution", 1}}},
}

// batchMemo shares cell batches between the figures of one RunFigures call:
// the first figure to ask for a batch runs it, the rest read its means. The
// memoized values are the deterministic output of the batch, hence
// identical to an unshared run.
type batchMemo struct{ runs sync.Map } // batch tag -> func() ([][]float64, error)

func (m *batchMemo) do(batch string, run func() ([][]float64, error)) ([][]float64, error) {
	if m == nil {
		return run()
	}
	once, _ := m.runs.LoadOrStore(batch, sync.OnceValues(run))
	return once.(func() ([][]float64, error))()
}

// run measures the row's batch on cfg's scenario — its catalog, as a static
// slice: figures ignore churn schedules — and reads the per-point means into
// the figure's series.
func (f *paperFigure) run(cfg Config) (*metrics.Figure, error) {
	cfg = cfg.WithDefaults()
	cfg.Scenario = cfg.Scenario.Static()
	labels, groups := f.labels, f.groups
	if labels == nil {
		labels = cfg.Scenario.Labels
	}
	if groups == nil {
		groups = wholeFile
	}
	means, err := cfg.memo.do(f.batch, func() ([][]float64, error) { return f.means(cfg, groups, labels) })
	if err != nil {
		return nil, fmt.Errorf("experiments: %s: %w", f.name, err)
	}
	fig := &metrics.Figure{Title: f.title, Unit: f.unit, Labels: labels}
	for gi, g := range groups {
		for _, s := range f.series {
			values := make([]float64, len(labels))
			for li := range labels {
				values[li] = means[gi*len(labels)+li][s.measure]
			}
			if err := fig.AddSeries(g.name+s.name, values); err != nil {
				return nil, err
			}
		}
	}
	return fig, nil
}

// means runs the batch through runCells and folds each point's consecutive
// repetitions into the mean of every measure, one vector per (group, label).
func (f *paperFigure) means(cfg Config, groups []figureGroup, labels []string) ([][]float64, error) {
	reps := cfg.Reps
	if f.repsInCell {
		reps = 1
	}
	samples, err := runCells(cfg, f.batch, len(groups)*len(labels)*reps,
		func(i int, cellCfg Config) ([]float64, error) {
			point := i / reps
			return f.cell(cellCfg, groups[point/len(labels)].parts, labels[point%len(labels)], i%reps)
		})
	if err != nil {
		return nil, err
	}
	means := make([][]float64, len(samples)/reps)
	run := make([]float64, reps)
	for p := range means {
		means[p] = make([]float64, len(samples[p*reps]))
		for k := range means[p] {
			for r := range run {
				run[r] = samples[p*reps+r][k]
			}
			means[p][k] = metrics.Mean(run)
		}
	}
	return means, nil
}

// ChurnFigureRates and FaultFigureRates are the intensity multipliers the
// churn and fault figures sweep — half the written schedule (or fault plan)
// up to four times it.
var (
	ChurnFigureRates = []float64{0.5, 1, 2, 4}
	FaultFigureRates = []float64{0.5, 1, 2, 4}
)

// The worlds the marginal figures measure when the Config leaves the
// scenario (or workload) unset. The Zipf capacity skew is where bandwidth
// clustering is visible — a uniform slice has no classes to cluster — and
// its workload hint supplies the dissemination workload.
const (
	DefaultChurnScenario   = "churn:32"
	DefaultFaultScenario   = "faults:32"
	DefaultClusterScenario = "zipf:16"
	DefaultStreamWorkload  = "stream:16"
)

// marginalFigure is one sweep-marginal figure as data: sweep one axis over
// the resolved (scenario, workload), then plot projections of that axis's
// marginals, one label per axis value.
type marginalFigure struct {
	name, title, unit string // name prefixes every error
	// scenario and workload are the default specs; an empty workload
	// resolves like RunWorkload (Config, scenario hint, controller-fanout).
	scenario, workload string
	// sweep returns the one-axis grid; run reads the axis name and its
	// values, spelled as the marginals spell them, back off Sweep.Spec —
	// nothing is formatted at package init.
	sweep func() Sweep
	// label prefixes an axis value in the figure; noun in an error.
	label, noun string
	// ready rejects a configuration the figure cannot measure: a figure
	// labeled with the requested scenario or workload must measure it, so
	// a mismatch is an error, never a silent substitution.
	ready  func(cfg Config) error
	series []marginalSeries
}

type marginalSeries struct {
	name string
	of   func(SweepMarginal) float64
}

// The marginal figures, one row each.
var marginalFigures = []marginalFigure{
	// Selection quality versus churn rate. Stale is the lease machinery's
	// audit carried into figure form: 0 at every rate on every committed
	// golden.
	{
		name: "figchurn", title: "Selection quality vs churn rate", unit: "percent of flows",
		scenario: DefaultChurnScenario,
		sweep:    func() Sweep { return Sweep{ChurnRates: ChurnFigureRates} },
		label:    "×", noun: "rate ",
		ready: func(cfg Config) error {
			if cfg.Scenario.ChurnRate == nil {
				return fmt.Errorf("scenario %q has no churn dynamics to sweep (want churn:N)", cfg.Scenario.Name)
			}
			return nil
		},
		series: []marginalSeries{
			{"failed flows", func(m SweepMarginal) float64 { return m.FailedPct }},
			{"selections lagged", func(m SweepMarginal) float64 { return m.LaggedPct }},
			{"selections stale", func(m SweepMarginal) float64 { return m.StalePct }},
		},
	},
	// Flow outcome versus control-plane fault intensity. Degraded and
	// recovered climbing while failures stay low is the resilience story:
	// flows route around a broken control plane instead of dying with it.
	{
		name: "figfault", title: "Flow resilience vs fault rate", unit: "percent of flows",
		scenario: DefaultFaultScenario,
		sweep:    func() Sweep { return Sweep{FaultRates: FaultFigureRates} },
		label:    "×", noun: "rate ",
		ready: func(cfg Config) error {
			if cfg.Scenario.FaultRate == nil {
				return fmt.Errorf("scenario %q has no fault plan to sweep (want faults:N)", cfg.Scenario.Name)
			}
			return nil
		},
		series: []marginalSeries{
			{"failed flows", func(m SweepMarginal) float64 { return m.FailedPct }},
			{"selections degraded", func(m SweepMarginal) float64 { return m.DegradedPct }},
			{"flows recovered", func(m SweepMarginal) float64 { return m.RecoveredPct }},
		},
	},
	// The incentive figure: the like/cross pair-byte ratio under tit-for-tat
	// climbs above 1 (Legout's clustering); choke=none mixes the classes.
	{
		name: "figcluster", title: "Bandwidth clustering vs choking policy", unit: "like/cross pair-byte ratio",
		scenario: DefaultClusterScenario,
		sweep:    func() Sweep { return Sweep{Chokes: workload.Chokes} },
		label:    "choke=", noun: "choke=",
		ready: func(cfg Config) error {
			if cfg.Workload.Disseminate == nil {
				return fmt.Errorf("workload %q is not a dissemination workload (want disseminate:N / stream:N)", cfg.Workload.Name)
			}
			return nil
		},
		series: []marginalSeries{
			{"pairing ratio", func(m SweepMarginal) float64 { return m.PairingRatio }},
		},
	},
	// The streaming figure: sequential picking stalls fewer viewers than
	// rarest-first (Rodrigues & Druschel), clearest in the stalled-flow
	// share, since stall counts concentrate on capacity-starved tail peers.
	{
		name: "figstream", title: "Playback stalls vs piece picking", unit: "stalls per flow; stalled flows %",
		scenario: DefaultClusterScenario, workload: DefaultStreamWorkload,
		sweep: func() Sweep { return Sweep{Picks: workload.Picks} },
		label: "pick=", noun: "pick=",
		ready: func(cfg Config) error {
			if cfg.Workload.Disseminate == nil || !cfg.Workload.Disseminate.Stream {
				return fmt.Errorf("workload %q is not a streaming workload (want stream:N)", cfg.Workload.Name)
			}
			return nil
		},
		series: []marginalSeries{
			{"stalls per flow", func(m SweepMarginal) float64 { return m.StallsPerFlow }},
			{"stalled flows %", func(m SweepMarginal) float64 { return m.StalledPct }},
		},
	},
}

// run resolves the row's world, sweeps its axis through RunSweep — the
// figure's cells are ordinary sweep cells, seeded by their coordinates —
// and reads the axis's marginals into one series per projection.
func (f *marginalFigure) run(cfg Config) (*metrics.Figure, error) {
	fail := func(err error) (*metrics.Figure, error) {
		return nil, fmt.Errorf("experiments: %s: %w", f.name, err)
	}
	if cfg.Scenario.IsZero() {
		def, err := scenario.Parse(f.scenario)
		if err != nil {
			return fail(err)
		}
		cfg.Scenario = def
	}
	cfg = cfg.WithDefaults()
	if cfg.Workload.IsZero() && f.workload != "" {
		w, err := workload.Parse(f.workload)
		if err != nil {
			return fail(err)
		}
		cfg.Workload = w
	}
	w, err := ResolveWorkload(cfg.Workload, cfg.Scenario)
	if err != nil {
		return fail(err)
	}
	cfg.Workload = w
	if err := f.ready(cfg); err != nil {
		return fail(err)
	}
	sw := f.sweep()
	axis, values, _ := strings.Cut(sw.Spec(), "=")
	sw.Reps = cfg.Reps
	report, err := RunSweep(cfg, sw)
	if err != nil {
		return fail(err)
	}
	byValue := map[string]SweepMarginal{}
	for _, m := range report.Marginals {
		if m.Axis == axis {
			byValue[m.Value] = m
		}
	}
	fig := &metrics.Figure{
		Title: fmt.Sprintf("%s — %s", f.title, cfg.Scenario.Name),
		Unit:  f.unit,
	}
	columns := make([][]float64, len(f.series))
	for _, v := range strings.Split(values, ",") {
		m, ok := byValue[v]
		if !ok {
			return fail(fmt.Errorf("no marginal for %s%s", f.noun, v))
		}
		fig.Labels = append(fig.Labels, f.label+v)
		for i, s := range f.series {
			columns[i] = append(columns[i], s.of(m))
		}
	}
	for i, s := range f.series {
		if err := fig.AddSeries(s.name, columns[i]); err != nil {
			return nil, err
		}
	}
	return fig, nil
}
