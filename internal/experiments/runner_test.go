package experiments

import (
	"errors"
	"fmt"
	"math"
	"runtime"
	"testing"

	"peerlab/internal/metrics"
)

func TestDeriveSeedIsStableAndDisperses(t *testing.T) {
	a := deriveSeed(2007, "fig2", 0)
	if a != deriveSeed(2007, "fig2", 0) {
		t.Fatal("deriveSeed is not a pure function")
	}
	seen := map[int64]string{deriveSeed(2007, "fig2", 0): "fig2/0"}
	for _, c := range []struct {
		figure string
		index  int
	}{{"fig2", 1}, {"fig2", 2}, {"fig5", 0}, {"fig5", 1}, {"fig7", 0}} {
		s := deriveSeed(2007, c.figure, c.index)
		key := fmt.Sprintf("%s/%d", c.figure, c.index)
		if prev, dup := seen[s]; dup {
			t.Fatalf("seed collision: %s and %s both derive %d", prev, key, s)
		}
		seen[s] = key
	}
	if deriveSeed(2007, "fig2", 0) == deriveSeed(2008, "fig2", 0) {
		t.Fatal("root seed does not reach the derived seed")
	}
}

func TestRunCellsReportsLowestIndexError(t *testing.T) {
	// Error selection must be worker-count independent: always the lowest
	// failing cell index, no matter which worker finishes first.
	for _, workers := range []int{1, 4} {
		cfg := Config{Seed: 1, Reps: 1, Workers: workers}.WithDefaults()
		_, err := runCells(cfg, "errs", 8, func(i int, _ Config) (int, error) {
			if i >= 3 {
				return 0, fmt.Errorf("cell %d failed", i)
			}
			return i, nil
		})
		if err == nil || err.Error() != "cell 3 failed" {
			t.Fatalf("workers=%d: err = %v, want cell 3 failed", workers, err)
		}
	}
	cfg := Config{Seed: 1, Reps: 1, Workers: 2}.WithDefaults()
	out, err := runCells(cfg, "ok", 5, func(i int, _ Config) (int, error) { return i * i, nil })
	if err != nil {
		t.Fatal(err)
	}
	for i, v := range out {
		if v != i*i {
			t.Fatalf("out[%d] = %d, want %d (positional collection)", i, v, i*i)
		}
	}
	if _, err := runCells(cfg, "none", 3, func(i int, _ Config) (int, error) {
		return 0, errors.New("boom")
	}); err == nil {
		t.Fatal("error swallowed")
	}
}

func sameFigure(t *testing.T, name string, a, b *metrics.Figure) {
	t.Helper()
	if a.Title != b.Title || len(a.Series) != len(b.Series) {
		t.Fatalf("%s: figure shape diverged: %q/%d vs %q/%d",
			name, a.Title, len(a.Series), b.Title, len(b.Series))
	}
	for si := range a.Series {
		as, bs := a.Series[si], b.Series[si]
		if as.Name != bs.Name || len(as.Values) != len(bs.Values) {
			t.Fatalf("%s: series %d diverged: %q/%d vs %q/%d",
				name, si, as.Name, len(as.Values), bs.Name, len(bs.Values))
		}
		for vi := range as.Values {
			if math.Float64bits(as.Values[vi]) != math.Float64bits(bs.Values[vi]) {
				t.Fatalf("%s %s[%s]: %v (serial) != %v (parallel): not bit-identical",
					name, as.Name, a.Labels[vi], as.Values[vi], bs.Values[vi])
			}
		}
	}
}

func TestFigureSuiteDeterministicAcrossWorkerCounts(t *testing.T) {
	if testing.Short() {
		t.Skip("full suite twice")
	}
	cfg := Config{Seed: 777, Reps: 2}
	serialCfg, parallelCfg := cfg, cfg
	serialCfg.Workers = 1
	parallelCfg.Workers = runtime.GOMAXPROCS(0)

	serial, err := FigureSuite(serialCfg)
	if err != nil {
		t.Fatal(err)
	}
	parallel, err := FigureSuite(parallelCfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(serial.Figures) != 6 || len(parallel.Figures) != len(serial.Figures) {
		t.Fatalf("suite sizes: serial %d, parallel %d, want 6 (Figures 2–7)",
			len(serial.Figures), len(parallel.Figures))
	}
	for i, sf := range serial.Figures {
		pf := parallel.Figures[i]
		if sf.Name != pf.Name {
			t.Fatalf("figure order diverged at %d: %s vs %s", i, sf.Name, pf.Name)
		}
		sameFigure(t, sf.Name, sf.Figure, pf.Figure)
	}
	if serial.Figure("fig6") == nil || serial.Figure("nope") != nil {
		t.Fatal("Suite.Figure lookup broken")
	}
}
