package experiments

import (
	"slices"
	"testing"

	"peerlab/internal/metrics"
	"peerlab/internal/scenario"
)

// Shape tests pin the qualitative findings of the paper at a fixed seed;
// they intentionally do not assert absolute values (the substrate is a
// simulator, not the authors' testbed).

var testCfg = Config{Seed: 2007, Reps: 3}

// scLabels is the X axis of the per-peer figures on the default scenario.
var scLabels = scenario.Table1().Labels

func val(t *testing.T, f *metrics.Figure, series, label string) float64 {
	t.Helper()
	v, ok := f.Value(series, label)
	if !ok {
		t.Fatalf("figure %q missing %s/%s", f.Title, series, label)
	}
	return v
}

func TestTable1Shape(t *testing.T) {
	tab := Table1()
	if len(tab.Rows) != 25 {
		t.Fatalf("Table 1 has %d rows, want 25", len(tab.Rows))
	}
	sc := 0
	for _, row := range tab.Rows {
		if row[2] != "" {
			sc++
		}
	}
	if sc != 8 {
		t.Fatalf("Table 1 marks %d SimpleClients, want 8", sc)
	}
	if md := tab.Markdown(); len(md) == 0 {
		t.Fatal("empty markdown")
	}
}

func TestFig2Shape(t *testing.T) {
	fig, err := figure("fig2", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	get := func(l string) float64 { return val(t, fig, "petition time", l) }
	// Paper: SC7 (27.13) > SC1 (12.86) > SC5 (5.19) > SC3 (2.79) > SC6
	// (0.35) >> SC2/SC4/SC8 (well under a second).
	if !(get("SC7") > get("SC1") && get("SC1") > get("SC5") &&
		get("SC5") > get("SC3") && get("SC3") > get("SC6")) {
		t.Fatalf("petition ordering violated: %+v", fig.Series[0].Values)
	}
	if get("SC7") < 15 {
		t.Fatalf("SC7 petition = %vs, want tens of seconds", get("SC7"))
	}
	for _, quick := range []string{"SC2", "SC4", "SC8"} {
		if get(quick) > 0.5 {
			t.Fatalf("%s petition = %vs, want well under a second", quick, get(quick))
		}
	}
}

func TestFig3Shape(t *testing.T) {
	fig, err := figure("fig3", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	sc7 := val(t, fig, "transmission time", "SC7")
	for _, l := range scLabels {
		if l == "SC7" {
			continue
		}
		if v := val(t, fig, "transmission time", l); v >= sc7 {
			t.Fatalf("%s (%v min) not faster than SC7 (%v min)", l, v, sc7)
		}
	}
	// Minutes scale, not hours or milliseconds.
	if sc7 < 2 || sc7 > 90 {
		t.Fatalf("SC7 50Mb time = %v min, want minutes scale", sc7)
	}
}

func TestFig4Shape(t *testing.T) {
	fig, err := figure("fig4", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	sc7 := val(t, fig, "last Mb", "SC7")
	var others []float64
	for _, l := range scLabels {
		if l != "SC7" {
			others = append(others, val(t, fig, "last Mb", l))
		}
	}
	slices.Sort(others)
	med := (others[(len(others)-1)/2] + others[len(others)/2]) / 2
	// Paper: SC7's last Mb is 2 to 4 times slower than the rest. Loss
	// recovery can stretch the upper end; require at least 2x and a
	// bounded blow-up.
	if ratio := sc7 / med; ratio < 2 || ratio > 40 {
		t.Fatalf("SC7 last-Mb ratio = %.1fx the median, want the 'several times slower' regime", ratio)
	}
}

func TestFig5Shape(t *testing.T) {
	fig, err := figure("fig5", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	whole16 := 0.0
	for _, l := range scLabels {
		whole := val(t, fig, "complete file", l)
		four := val(t, fig, "division into 4 parts", l)
		sixteen := val(t, fig, "division into 16 parts", l)
		if !(whole > four && four > sixteen) {
			t.Fatalf("%s: whole=%.2f four=%.2f sixteen=%.2f violates whole > 4 > 16",
				l, whole, four, sixteen)
		}
		whole16 += sixteen
	}
	// Paper: 16-part transmission averages ~1.7 minutes.
	avg16 := whole16 / float64(len(scLabels))
	if avg16 < 0.8 || avg16 > 4 {
		t.Fatalf("16-part average = %.2f min, want within [0.8, 4] around the paper's 1.7", avg16)
	}
	// Whole-file worst case reaches tens of minutes.
	if sc7 := val(t, fig, "complete file", "SC7"); sc7 < 15 {
		t.Fatalf("SC7 whole-file = %.2f min, want tens of minutes", sc7)
	}
}

func TestFig6Shape(t *testing.T) {
	fig, err := figure("fig6", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	eco4 := val(t, fig, "division into 4 parts", "economic")
	same4 := val(t, fig, "division into 4 parts", "same-priority")
	quick4 := val(t, fig, "division into 4 parts", "quick-peer")
	// Paper (Figure 6, 4 parts): economic 0.16 < same-priority 0.25 <
	// quick-peer 0.33.
	if !(eco4 < same4 && same4 < quick4) {
		t.Fatalf("4-part model ordering violated: eco=%.3f same=%.3f quick=%.3f", eco4, same4, quick4)
	}
	// 16 parts: every model beats its own 4-part figure, and the spread
	// collapses (paper: 0.14 each).
	var sixteen []float64
	for _, model := range Fig6Models {
		v16 := val(t, fig, "division into 16 parts", model)
		v4 := val(t, fig, "division into 4 parts", model)
		if v16 >= v4 {
			t.Fatalf("%s: 16 parts (%.3f) not below 4 parts (%.3f)", model, v16, v4)
		}
		sixteen = append(sixteen, v16)
	}
	if slices.Max(sixteen) > 2*slices.Min(sixteen) {
		t.Fatalf("16-part spread too wide: %v", sixteen)
	}
	// Sub-second regime, as in the paper.
	if quick4 > 1.0 {
		t.Fatalf("4-part quick-peer = %.3fs, want sub-second", quick4)
	}
}

func TestFig7Shape(t *testing.T) {
	fig, err := figure("fig7", testCfg)
	if err != nil {
		t.Fatal(err)
	}
	gapSC7 := 0.0
	for _, l := range scLabels {
		exec := val(t, fig, "just execution", l)
		both := val(t, fig, "transmission & execution", l)
		if both <= exec {
			t.Fatalf("%s: transmission+execution (%.2f) not above just execution (%.2f)", l, both, exec)
		}
		if l == "SC7" {
			gapSC7 = both - exec
		}
	}
	// SC7 pays the largest absolute penalty for shipping the input.
	for _, l := range scLabels {
		if l == "SC7" {
			continue
		}
		gap := val(t, fig, "transmission & execution", l) - val(t, fig, "just execution", l)
		if gap > gapSC7 {
			t.Fatalf("%s gap (%.2f) exceeds SC7's (%.2f)", l, gap, gapSC7)
		}
	}
	// SC7 execution alone is the slowest (weakest CPU).
	sc7exec := val(t, fig, "just execution", "SC7")
	for _, l := range scLabels {
		if l != "SC7" && val(t, fig, "just execution", l) >= sc7exec {
			t.Fatalf("%s executes slower than SC7", l)
		}
	}
}

func TestExperimentsAreSeedDeterministic(t *testing.T) {
	a, err := figure("fig2", Config{Seed: 99, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := figure("fig2", Config{Seed: 99, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range a.Series[0].Values {
		if a.Series[0].Values[i] != b.Series[0].Values[i] {
			t.Fatalf("same seed diverged at %s: %v vs %v",
				a.Labels[i], a.Series[0].Values[i], b.Series[0].Values[i])
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a, err := figure("fig2", Config{Seed: 1, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	b, err := figure("fig2", Config{Seed: 2, Reps: 2})
	if err != nil {
		t.Fatal(err)
	}
	same := true
	for i := range a.Series[0].Values {
		if a.Series[0].Values[i] != b.Series[0].Values[i] {
			same = false
		}
	}
	if same {
		t.Fatal("different seeds produced identical figures; jitter/lag draws look unseeded")
	}
}
