package experiments

import (
	"testing"

	"peerlab/internal/scenario"
)

// TestScenarioFiguresWorkerInvariant pins the tentpole determinism
// contract: a synthesized scenario's figures — catalog draws included —
// are bit-identical at any worker count.
func TestScenarioFiguresWorkerInvariant(t *testing.T) {
	base := Config{Seed: 424, Reps: 2, Scenario: scenario.Heterogeneous(6)}
	serial, parallel := base, base
	serial.Workers = 1
	parallel.Workers = 4

	a, err := figure("fig2", serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := figure("fig2", parallel)
	if err != nil {
		t.Fatal(err)
	}
	sameFigure(t, "fig2/heterogeneous:6", a, b)

	a, err = figure("fig6", serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err = figure("fig6", parallel)
	if err != nil {
		t.Fatal(err)
	}
	sameFigure(t, "fig6/heterogeneous:6", a, b)
}

// TestShardedBrokerFigureInvariant pins the sharding contract: Figure 6's
// model comparisons — the only figure that exercises the broker's
// whole-network aggregation (directory merge, cross-shard candidate
// snapshots) — read identically at shard count 1 and N.
func TestShardedBrokerFigureInvariant(t *testing.T) {
	for _, sc := range []scenario.Scenario{{}, scenario.Uniform(5)} {
		name := sc.Name
		if sc.IsZero() {
			name = "table1"
		}
		base := Config{Seed: 2007, Reps: 2, Scenario: sc}
		one, many := base, base
		one.Shards = 1
		many.Shards = 4

		a, err := figure("fig6", one)
		if err != nil {
			t.Fatal(err)
		}
		b, err := figure("fig6", many)
		if err != nil {
			t.Fatal(err)
		}
		sameFigure(t, "fig6/"+name+"/shards", a, b)
	}
}

// TestScenarioSuiteSmoke runs the full suite on a synthesized slice: every
// figure must come back with the scenario's labels.
func TestScenarioSuiteSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite on a synthetic scenario")
	}
	sc := scenario.Heterogeneous(12)
	suite, err := FigureSuite(Config{Seed: 11, Reps: 1, Scenario: sc, Shards: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(suite.Figures) != 6 {
		t.Fatalf("suite has %d figures, want 6 (Figures 2–7)", len(suite.Figures))
	}
	for _, name := range []string{"fig2", "fig3", "fig5", "fig7"} {
		fig := suite.Figure(name)
		if fig == nil {
			t.Fatalf("missing %s", name)
		}
		if len(fig.Labels) != 12 {
			t.Fatalf("%s has %d labels, want the scenario's 12", name, len(fig.Labels))
		}
	}
	if fig6 := suite.Figure("fig6"); len(fig6.Labels) != len(Fig6Models) {
		t.Fatalf("fig6 labels = %v", fig6.Labels)
	}
}
