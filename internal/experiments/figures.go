// Figures as data: the registry every surface lists figures from, and the
// marginal figures — one sweep axis, one precondition and a few projections
// of the sweep's marginals each — as rows run by one function.

package experiments

import (
	"fmt"
	"strings"

	"peerlab/internal/metrics"
	"peerlab/internal/scenario"
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

// Figures lists every figure in presentation order: the one list behind
// FigureSuite and the CLI's dispatch, default-scenario rewrite and help
// text. The rows with no world of their own are the paper's suite.
var Figures = []FigureSpec{
	{Name: "fig2", Run: Fig2PetitionTime},
	{Name: "fig3", Run: Fig3Transmission50Mb},
	{Name: "fig4", Run: Fig4LastMb},
	{Name: "fig5", Run: Fig5Granularity},
	{Name: "fig6", Run: Fig6SelectionModels},
	{Name: "fig7", Run: Fig7ExecVsTransferExec},
	{Name: "figchurn", Run: FigChurnQuality, Scenario: DefaultChurnScenario},
	{Name: "figfault", Run: FigFaultResilience, Scenario: DefaultFaultScenario},
	{Name: "figcluster", Run: FigBandwidthClustering, Scenario: DefaultClusterScenario},
	{Name: "figstream", Run: FigStreamStalls, Scenario: DefaultClusterScenario},
}

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
var (
	// Selection quality versus churn rate. Stale is the lease machinery's
	// audit carried into figure form: 0 at every rate on every committed
	// golden.
	figChurn = marginalFigure{
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
	}
	// Flow outcome versus control-plane fault intensity. Degraded and
	// recovered climbing while failures stay low is the resilience story:
	// flows route around a broken control plane instead of dying with it.
	figFault = marginalFigure{
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
	}
	// The incentive figure: under tit-for-tat fast peers reciprocate with
	// fast peers and the like/cross pair-byte ratio climbs above 1
	// (Legout's clustering), while choke=none — with the deliberately
	// policy-neutral partner choice — mixes the classes. Only the piece
	// engine produces a pair matrix.
	figCluster = marginalFigure{
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
	}
	// The streaming figure: sequential picking delivers pieces in playback
	// order and stalls fewer viewers, rarest-first optimizes swarm health at
	// the viewer's expense (Rodrigues & Druschel) — clearest in the
	// stalled-flow share, since total stall counts concentrate on
	// capacity-starved tail peers no picking order can save. Without
	// deadlines there are no stalls to rank.
	figStream = marginalFigure{
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
	}
)

func FigChurnQuality(cfg Config) (*metrics.Figure, error)        { return figChurn.run(cfg) }
func FigFaultResilience(cfg Config) (*metrics.Figure, error)     { return figFault.run(cfg) }
func FigBandwidthClustering(cfg Config) (*metrics.Figure, error) { return figCluster.run(cfg) }
func FigStreamStalls(cfg Config) (*metrics.Figure, error)        { return figStream.run(cfg) }

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
	cfg = cfg.withDefaults()
	if cfg.Workload.IsZero() && f.workload != "" {
		w, err := workload.Parse(f.workload)
		if err != nil {
			return fail(err)
		}
		cfg.Workload = w
	}
	w, err := resolveWorkload(cfg.Workload, cfg.Scenario)
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
