package metrics

import (
	"math"
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func sampleFigure() *Figure {
	f := &Figure{Title: "Fig X", Unit: "seconds", Labels: []string{"a", "b", "c"}}
	f.AddSeries("s1", []float64{1, 2, 3})
	f.AddSeries("s2", []float64{0.5, 0, 30})
	return f
}

func TestAddSeriesLengthMismatch(t *testing.T) {
	f := &Figure{Labels: []string{"a", "b"}}
	if err := f.AddSeries("bad", []float64{1}); err == nil {
		t.Fatal("mismatched series accepted")
	}
}

func TestFigureValue(t *testing.T) {
	f := sampleFigure()
	if v, ok := f.Value("s1", "b"); !ok || v != 2 {
		t.Fatalf("Value(s1,b) = %v,%v", v, ok)
	}
	if _, ok := f.Value("s1", "zzz"); ok {
		t.Fatal("unknown label found")
	}
	if _, ok := f.Value("zzz", "a"); ok {
		t.Fatal("unknown series found")
	}
}

func TestFigureMarkdown(t *testing.T) {
	md := sampleFigure().Markdown()
	for _, want := range []string{"Fig X", "(seconds)", "| a |", "s1", "s2", "30.0"} {
		if !strings.Contains(md, want) {
			t.Fatalf("markdown missing %q:\n%s", want, md)
		}
	}
}

func TestFigureCSV(t *testing.T) {
	csv := sampleFigure().CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 4 {
		t.Fatalf("CSV has %d lines, want 4", len(lines))
	}
	if lines[0] != "label,s1,s2" {
		t.Fatalf("header = %q", lines[0])
	}
	if lines[1] != "a,1,0.5" {
		t.Fatalf("row = %q", lines[1])
	}
}

func TestCSVEscaping(t *testing.T) {
	f := &Figure{Labels: []string{`x,"y`}}
	f.AddSeries("s", []float64{1})
	if !strings.Contains(f.CSV(), `"x,""y"`) {
		t.Fatalf("CSV not escaped: %s", f.CSV())
	}
}

func TestFigureBars(t *testing.T) {
	bars := sampleFigure().Bars(10)
	if !strings.Contains(bars, "##########") {
		t.Fatalf("max bar not full width:\n%s", bars)
	}
	if !strings.Contains(bars, "a/s1") {
		t.Fatalf("multi-series rows must be tagged:\n%s", bars)
	}
}

func TestBarsSingleSeriesUntagged(t *testing.T) {
	f := &Figure{Labels: []string{"only"}}
	f.AddSeries("s", []float64{5})
	if strings.Contains(f.Bars(10), "only/s") {
		t.Fatal("single series should not tag rows")
	}
}

func TestBarsAllZeros(t *testing.T) {
	f := &Figure{Labels: []string{"a"}}
	f.AddSeries("s", []float64{0})
	if out := f.Bars(10); !strings.Contains(out, "| 0") {
		t.Fatalf("zero bars mis-rendered:\n%s", out)
	}
}

func TestSummarize(t *testing.T) {
	if s := Summarize([]float64{2, 4, 4, 4, 5, 5, 9, 7}); s.Mean != 5 || s.Max != 9 {
		t.Fatalf("Mean/Max = %v/%v", s.Mean, s.Max)
	}
}

func TestSummarizeEdge(t *testing.T) {
	if s := Summarize(nil); s != (Summary{}) {
		t.Fatalf("empty summary = %+v", s)
	}
	if s := Summarize([]float64{7}); s.Mean != 7 || s.Max != 7 {
		t.Fatalf("singleton summary = %+v", s)
	}
}

func TestSummarizeDoesNotMutateInput(t *testing.T) {
	in := []float64{3, 1, 2}
	Summarize(in)
	if in[0] != 3 || in[1] != 1 || in[2] != 2 {
		t.Fatalf("input mutated: %v", in)
	}
}

func TestTableMarkdown(t *testing.T) {
	tab := &Table{Title: "T", Columns: []string{"x", "y"}}
	tab.AddRow("1")
	tab.AddRow("2", "3")
	md := tab.Markdown()
	if !strings.Contains(md, "| 1 |  |") || !strings.Contains(md, "| 2 | 3 |") {
		t.Fatalf("table markdown:\n%s", md)
	}
}

func TestPropertySummaryBounds(t *testing.T) {
	f := func(xs []float64) bool {
		for _, x := range xs {
			// Exclude inputs whose sum overflows float64: summary
			// statistics are only meaningful over representable sums.
			if math.IsNaN(x) || math.IsInf(x, 0) || math.Abs(x) > 1e150 {
				return true
			}
		}
		s := Summarize(xs)
		if len(xs) == 0 {
			return s == Summary{}
		}
		return slices.Min(xs) <= s.Mean && s.Mean <= s.Max && s.Max == slices.Max(xs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
