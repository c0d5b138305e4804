// Package metrics holds the small result containers the experiment harness
// fills and renders: labeled series (one bar chart = one or more series over
// the same labels), summary statistics, and markdown/ASCII/CSV output.
package metrics

import (
	"fmt"
	"math"
	"slices"
	"strings"
)

// Series is one named sequence of values over shared labels.
type Series struct {
	Name   string
	Values []float64
}

// Figure is a labeled group of series — the shape of every bar chart in the
// paper (X axis = Labels, one bar group per series).
type Figure struct {
	Title  string
	Unit   string // "seconds", "minutes"
	Labels []string
	Series []Series
}

// AddSeries appends a series; the value count must match the labels.
func (f *Figure) AddSeries(name string, values []float64) error {
	if len(values) != len(f.Labels) {
		return fmt.Errorf("metrics: series %q has %d values for %d labels", name, len(values), len(f.Labels))
	}
	f.Series = append(f.Series, Series{Name: name, Values: values})
	return nil
}

// Value returns the value of series s at label l.
func (f *Figure) Value(series, label string) (float64, bool) {
	li := slices.Index(f.Labels, label)
	if li < 0 {
		return 0, false
	}
	for _, s := range f.Series {
		if s.Name == series {
			return s.Values[li], true
		}
	}
	return 0, false
}

// Markdown renders the figure as a markdown table (labels as rows).
func (f *Figure) Markdown() string {
	t := Table{Title: f.heading(), Columns: []string{""}}
	for _, s := range f.Series {
		t.Columns = append(t.Columns, s.Name)
	}
	for i, l := range f.Labels {
		t.AddRow(l)
		for c, s := range f.Series {
			t.Rows[i][c+1] = fmtVal(s.Values[i])
		}
	}
	return t.Markdown()
}

// heading is the figure's title, with its unit when it has one.
func (f *Figure) heading() string {
	if f.Unit == "" {
		return f.Title
	}
	return f.Title + " (" + f.Unit + ")"
}

// CSV renders the figure as comma-separated values with a header row.
func (f *Figure) CSV() string {
	var b strings.Builder
	b.WriteString("label")
	for _, s := range f.Series {
		fmt.Fprintf(&b, ",%s", csvEscape(s.Name))
	}
	b.WriteString("\n")
	for i, l := range f.Labels {
		b.WriteString(csvEscape(l))
		for _, s := range f.Series {
			fmt.Fprintf(&b, ",%g", s.Values[i])
		}
		b.WriteString("\n")
	}
	return b.String()
}

func csvEscape(s string) string {
	if strings.ContainsAny(s, ",\"\n") {
		return `"` + strings.ReplaceAll(s, `"`, `""`) + `"`
	}
	return s
}

// Bars renders an ASCII bar chart (one row per label-series pair), scaled
// to width characters for the largest value.
func (f *Figure) Bars(width int) string {
	if width <= 0 {
		width = 50
	}
	maxVal := 0.0
	for _, s := range f.Series {
		for _, v := range s.Values {
			if v > maxVal {
				maxVal = v
			}
		}
	}
	var b strings.Builder
	b.WriteString(f.heading() + "\n")
	nameW := 0
	for _, l := range f.Labels {
		for _, s := range f.Series {
			nameW = max(nameW, len(rowTag(l, s.Name, len(f.Series) > 1)))
		}
	}
	for i, l := range f.Labels {
		for _, s := range f.Series {
			tag := rowTag(l, s.Name, len(f.Series) > 1)
			n := 0
			if maxVal > 0 {
				n = int(math.Round(s.Values[i] / maxVal * float64(width)))
			}
			fmt.Fprintf(&b, "  %-*s |%s %s\n", nameW, tag, strings.Repeat("#", n), fmtVal(s.Values[i]))
		}
	}
	return b.String()
}

func rowTag(label, series string, multi bool) string {
	if multi {
		return label + "/" + series
	}
	return label
}

func fmtVal(v float64) string {
	switch {
	case v == 0:
		return "0"
	case math.Abs(v) >= 100:
		return fmt.Sprintf("%.1f", v)
	case math.Abs(v) >= 1:
		return fmt.Sprintf("%.2f", v)
	default:
		return fmt.Sprintf("%.3f", v)
	}
}

// Summary is what the harness reads of a sample set.
type Summary struct {
	Mean, Max float64
}

// Summarize returns the mean and the largest value of xs; an empty input
// yields zeros.
func Summarize(xs []float64) Summary {
	if len(xs) == 0 {
		return Summary{}
	}
	s := Summary{Max: xs[0]}
	for _, x := range xs {
		s.Mean += x
		if x > s.Max {
			s.Max = x
		}
	}
	s.Mean /= float64(len(xs))
	return s
}

// Mean is a convenience over Summarize.
func Mean(xs []float64) float64 { return Summarize(xs).Mean }

// Table is a generic text table (used for Table 1 and run summaries).
type Table struct {
	Title   string
	Columns []string
	Rows    [][]string
}

// AddRow appends a row, padding or truncating to the column count.
func (t *Table) AddRow(cells ...string) {
	row := make([]string, len(t.Columns))
	copy(row, cells)
	t.Rows = append(t.Rows, row)
}

// Markdown renders the table.
func (t *Table) Markdown() string {
	var b strings.Builder
	if t.Title != "" {
		fmt.Fprintf(&b, "### %s\n\n", t.Title)
	}
	b.WriteString("|")
	for _, c := range t.Columns {
		fmt.Fprintf(&b, " %s |", c)
	}
	b.WriteString("\n|")
	for range t.Columns {
		b.WriteString("---|")
	}
	b.WriteString("\n")
	for _, row := range t.Rows {
		b.WriteString("|")
		for _, cell := range row {
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}
