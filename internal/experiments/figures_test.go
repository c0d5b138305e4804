package experiments

import (
	"fmt"
	"strings"
	"testing"

	"peerlab/internal/metrics"
)

// figure runs the registry row with the given key — how every test reaches
// a figure, so the tests exercise the same path the CLI and the suite do.
func figure(name string, cfg Config) (*metrics.Figure, error) {
	f, ok := FigureByName(name)
	if !ok {
		return nil, fmt.Errorf("no figure %q", name)
	}
	return f.Run(cfg)
}

// TestFigureRegistryIsPinned pins what every surface lists: the figures in
// presentation order, each with its default world, and the -experiment help
// text derived from them.
func TestFigureRegistryIsPinned(t *testing.T) {
	var rows []string
	for _, f := range Figures {
		rows = append(rows, f.Name+"@"+f.Scenario)
	}
	const wantRows = "fig2@ fig3@ fig4@ fig5@ fig6@ fig7@ figchurn@churn:32 figfault@faults:32 figcluster@zipf:16 figstream@zipf:16"
	if got := strings.Join(rows, " "); got != wantRows {
		t.Fatalf("Figures =\n %s\nwant\n %s", got, wantRows)
	}
	const wantNames = "all, table1, fig2..fig7, figchurn, figfault, figcluster, figstream"
	if got := ExperimentNames(); got != wantNames {
		t.Fatalf("ExperimentNames() = %q, want %q", got, wantNames)
	}
}

// TestFigureNamesAreUnique: a name is a CLI key, a suite key and an error
// prefix; the registry spans both figure tables, so a clash between a paper
// figure and a marginal figure would shadow one of them silently.
func TestFigureNamesAreUnique(t *testing.T) {
	seen := map[string]bool{"all": true, "table1": true}
	for _, f := range Figures {
		if seen[f.Name] {
			t.Fatalf("figure name %q is listed twice (or shadows all/table1)", f.Name)
		}
		seen[f.Name] = true
		if got, ok := FigureByName(f.Name); !ok || got.Name != f.Name {
			t.Fatalf("FigureByName(%q) = %+v, %v", f.Name, got, ok)
		}
	}
}
