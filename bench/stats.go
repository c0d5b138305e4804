package main

import (
	"math"
	"sort"
)

// dist summarises the R values one metric took over the untraced runs of a
// workload. The median is the reported value; the quartiles give the spread
// a later comparison needs to tell a change from noise.
type dist struct {
	N      int     `json:"n"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	Min    float64 `json:"min"`
	Max    float64 `json:"max"`
}

// summarise returns the distribution of xs. Quartiles follow the exclusive
// method (position p·(n+1) on the sorted values, clamped to the ends), the
// default of Python's statistics.quantiles, so a spread computed here and
// one computed by a script over the same values agree.
func summarise(xs []float64) dist {
	if len(xs) == 0 {
		return dist{}
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{
		N:      len(s),
		Median: quantile(s, 0.5),
		Q1:     quantile(s, 0.25),
		Q3:     quantile(s, 0.75),
		Min:    s[0],
		Max:    s[len(s)-1],
	}
}

// quantile interpolates the p-quantile of sorted values.
func quantile(sorted []float64, p float64) float64 {
	n := len(sorted)
	pos := p*float64(n+1) - 1 // zero-based position
	if pos <= 0 {
		return sorted[0]
	}
	if pos >= float64(n-1) {
		return sorted[n-1]
	}
	lo := int(math.Floor(pos))
	frac := pos - float64(lo)
	return sorted[lo] + frac*(sorted[lo+1]-sorted[lo])
}

// spread is the inter-quartile distance as a share of the median.
func (d dist) spread() float64 {
	if d.Median == 0 {
		return 0
	}
	return (d.Q3 - d.Q1) / math.Abs(d.Median)
}

// Verdicts of one workload × end-to-end metric comparison.
const (
	verdictOK         = "ok"
	verdictRegressed  = "regressed"
	verdictUnresolved = "unresolved"
)

// verdict judges a change's distribution against its parent's with the
// given bound (a share of the parent's median). A median that worsened by
// more than the bound regressed. When the parent's own inter-quartile spread
// exceeds the bound the rig cannot resolve a change of that size, so the
// pair is unresolved — unless every run of the change reads no worse than
// every run of the parent, which no amount of noise explains.
func verdict(parent, change dist, bound float64, higherIsBetter bool) string {
	if parent.N == 0 || change.N == 0 {
		return verdictUnresolved
	}
	if higherIsBetter {
		parent, change = parent.negated(), change.negated()
	}
	if change.Max <= parent.Min {
		return verdictOK
	}
	if parent.spread() > bound {
		return verdictUnresolved
	}
	if change.Median > parent.Median+bound*math.Abs(parent.Median) {
		return verdictRegressed
	}
	return verdictOK
}

// negated mirrors a distribution so a higher-is-better metric can be judged
// by the lower-is-better rule.
func (d dist) negated() dist {
	return dist{N: d.N, Median: -d.Median, Q1: -d.Q3, Q3: -d.Q1, Min: -d.Max, Max: -d.Min}
}
