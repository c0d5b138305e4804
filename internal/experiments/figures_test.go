package experiments

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"

	"peerlab/internal/metrics"
	"peerlab/internal/sweeptest"
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

// countCells swaps a counting wrapper into every paper row's cell for the
// duration of the test.
func countCells(t *testing.T) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	for i := range paperFigures {
		f := &paperFigures[i]
		cell := f.cell
		f.cell = func(cfg Config, parts int, label string, rep int) ([]float64, error) {
			n.Add(1)
			return cell(cfg, parts, label, rep)
		}
		t.Cleanup(func() { f.cell = cell })
	}
	return &n
}

// TestRunFiguresListSharesBatches: a listed fig3,fig4 run — two views of
// the 50 Mb batch — simulates the batch once and equals the suite's two
// figures byte for byte.
func TestRunFiguresListSharesBatches(t *testing.T) {
	cfg := Config{Seed: 2007, Reps: 1}
	suite, err := FigureSuite(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cells := countCells(t)
	listed, err := RunFigures(cfg, []string{"fig3", "fig4"})
	if err != nil {
		t.Fatal(err)
	}
	if want := int64(len(scLabels)); cells.Load() != want {
		t.Fatalf("fig3,fig4 ran %d cells, want the 50 Mb batch once (%d)", cells.Load(), want)
	}
	if listed.Table1 != nil || len(listed.Figures) != 2 {
		t.Fatalf("fig3,fig4 produced table1=%v and %d figures", listed.Table1 != nil, len(listed.Figures))
	}
	for _, sf := range listed.Figures {
		if err := sweeptest.Diff(goldenJSON(t, suite.Figure(sf.Name)), goldenJSON(t, sf.Figure)); err != nil {
			t.Fatalf("listed %s differs from the suite's: %v", sf.Name, err)
		}
	}
}

// TestRunFiguresNames: "all" expands in place wherever it is listed, and an
// unknown name is a usage error raised before any cell runs.
func TestRunFiguresNames(t *testing.T) {
	cfg := Config{Seed: 2007, Reps: 1}
	suite, err := RunFigures(cfg, []string{"fig2", "all"})
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sf := range suite.Figures {
		names = append(names, sf.Name)
	}
	if got := strings.Join(names, " "); got != "fig2 fig2 fig3 fig4 fig5 fig6 fig7" || suite.Table1 == nil {
		t.Fatalf("fig2,all = %q (table1 %v)", got, suite.Table1 != nil)
	}
	cells := countCells(t)
	if _, err := RunFigures(cfg, []string{"fig2", "fig9"}); !errors.Is(err, ErrUnknownExperiment) {
		t.Fatalf("err = %v, want ErrUnknownExperiment", err)
	}
	if cells.Load() != 0 {
		t.Fatalf("%d cells ran before the unknown name was rejected", cells.Load())
	}
}

// TestFigureTablesFeedTheRegistry: every registry entry is generated from a
// row of one of the two tables, and rows that name the same seed batch are
// views of the same cells — the memo would otherwise hand one row another
// row's measurements.
func TestFigureTablesFeedTheRegistry(t *testing.T) {
	if len(Figures) != len(paperFigures)+len(marginalFigures) {
		t.Fatalf("%d registry entries from %d + %d table rows", len(Figures), len(paperFigures), len(marginalFigures))
	}
	byBatch := map[string]*paperFigure{}
	for i := range paperFigures {
		f := &paperFigures[i]
		first, shared := byBatch[f.batch]
		if !shared {
			byBatch[f.batch] = f
			continue
		}
		if reflect.ValueOf(f.cell).Pointer() != reflect.ValueOf(first.cell).Pointer() ||
			!reflect.DeepEqual(f.groups, first.groups) || !reflect.DeepEqual(f.labels, first.labels) ||
			f.repsInCell != first.repsInCell {
			t.Fatalf("%s and %s share batch %q but not its cells", first.name, f.name, f.batch)
		}
	}
}
