package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// layerMetric declares one per-layer metric.
type layerMetric struct {
	Name   string
	Unit   string
	Higher bool // higher is better
}

// perLayerMetrics lists every per-layer metric a traced result carries, in
// the order BENCHMARK.json declares them: the probes, each layer's share of
// the traced run, the staged spans and counts, and the tracing overhead.
func perLayerMetrics() []layerMetric {
	ms := append([]layerMetric(nil), probeMetrics...)
	for _, l := range layers {
		ms = append(ms, layerMetric{Name: l + ".cpu_s", Unit: "s"}, layerMetric{Name: l + ".alloc_mb", Unit: "MB"})
	}
	ms = append(ms, stagedMetrics...)
	return append(ms, layerMetric{Name: overheadName, Unit: "%"})
}

// printReport prints every metric by name with its unit, and the checks.
func printReport(w io.Writer, res resultFile) {
	if res.Quick {
		fmt.Fprintln(w, "# QUICK MODE: quarter-size workloads, one run each. These numbers are not comparable with anything.")
	}
	for _, wr := range res.Workloads {
		fmt.Fprintf(w, "\n== %s  (%d runs)\n", wr.Name, wr.Runs)
		if wr.EndToEnd != nil {
			fmt.Fprintf(w, "  %-14s %12s %-3s %12s %12s %12s %12s %7s  %s\n",
				"end-to-end", "median", "", "q1", "q3", "min", "max", "spread", "n")
			for _, m := range endToEnd {
				d := wr.EndToEnd[m.Name]
				fmt.Fprintf(w, "  %-14s %12.6g %-3s %12.6g %12.6g %12.6g %12.6g %6.1f%%  %d\n",
					m.Name, d.Median, m.Unit, d.Q1, d.Q3, d.Min, d.Max, d.spread()*100, d.N)
			}
		}
		fmt.Fprintf(w, "  fail_share %.6g ratio   digest %s\n", wr.FailShare, wr.Digest)
		if wr.StaleSelections > 0 {
			fmt.Fprintf(w, "  WARNING: selections_stale = %d (DESIGN.md says always 0; see README, findings)\n", wr.StaleSelections)
		}
		if wr.Warnings > 0 {
			fmt.Fprintf(w, "  note: the program logged %d warnings (relaunch budgets exhausted)\n", wr.Warnings)
		}
		if wr.PerLayer != nil {
			printAttribution(w, wr.PerLayer)
			printNamed(w, wr.PerLayer, func(name string) bool {
				return !strings.HasSuffix(name, ".cpu_s") && !strings.HasSuffix(name, ".alloc_mb")
			})
		}
		for _, v := range wr.Violations {
			fmt.Fprintf(w, "  CHECK FAILED: %s\n", v)
		}
	}
	if res.Probes != nil {
		fmt.Fprintf(w, "\n== layer probes\n")
		printNamed(w, res.Probes, func(string) bool { return true })
	}
}

// printAttribution prints the traced run's layer table: CPU seconds and
// allocated megabytes per layer with their shares, largest CPU first.
func printAttribution(w io.Writer, per map[string]float64) {
	var cpuTotal, memTotal float64
	for _, l := range layers {
		cpuTotal += per[l+".cpu_s"]
		memTotal += per[l+".alloc_mb"]
	}
	order := append([]string(nil), layers...)
	sort.SliceStable(order, func(i, j int) bool { return per[order[i]+".cpu_s"] > per[order[j]+".cpu_s"] })
	fmt.Fprintf(w, "  %-14s %10s %7s %12s %7s\n", "layer", "cpu_s", "share", "alloc_mb", "share")
	for _, l := range order {
		cpu, mem := per[l+".cpu_s"], per[l+".alloc_mb"]
		if cpu == 0 && mem == 0 {
			continue
		}
		fmt.Fprintf(w, "  %-14s %10.4f %6.1f%% %12.2f %6.1f%%\n", l, cpu, share(cpu, cpuTotal), mem, share(mem, memTotal))
	}
}

func share(part, total float64) float64 {
	if total == 0 {
		return 0
	}
	return part / total * 100
}

// printNamed prints the per-layer metrics keep selects, in declaration
// order, each with its unit.
func printNamed(w io.Writer, values map[string]float64, keep func(string) bool) {
	for _, m := range perLayerMetrics() {
		v, ok := values[m.Name]
		if !ok || !keep(m.Name) {
			continue
		}
		if m.Name == speedupName && v == 0 {
			fmt.Fprintf(w, "  %-36s %14s\n", m.Name, "n/a (one core)")
			continue
		}
		fmt.Fprintf(w, "  %-36s %14.6g %s\n", m.Name, v, m.Unit)
	}
}

// contractLine is the one JSON object a -workload invocation prints last.
type contractLine struct {
	Correct   bool                     `json:"correct"`
	Attempted int                      `json:"attempted"`
	Failed    int                      `json:"failed"`
	Metrics   map[string]contractValue `json:"metrics"`
}

type contractValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// printContractLine prints the single workload's result: the end-to-end
// metrics of an untraced invocation, or every per-layer metric of a traced
// one. Attempted counts the measured calls into the program under test —
// the one operation a simulator's user performs — and failed those that
// errored or broke a check; flows the simulation records as failed are
// results, not failures of the program.
func printContractLine(w io.Writer, res resultFile, endToEndMetrics bool) error {
	wr := res.Workloads[0]
	line := contractLine{
		Correct:   len(wr.Violations) == 0,
		Attempted: wr.Runs,
		Failed:    wr.failedRuns,
		Metrics:   make(map[string]contractValue),
	}
	if endToEndMetrics {
		for _, m := range endToEnd {
			line.Metrics[m.Name] = contractValue{Value: wr.EndToEnd[m.Name].Median, Unit: m.Unit}
		}
	} else {
		for _, m := range perLayerMetrics() {
			v, ok := wr.PerLayer[m.Name]
			if !ok {
				v = res.Probes[m.Name]
			}
			line.Metrics[m.Name] = contractValue{Value: v, Unit: m.Unit}
		}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", data)
	return err
}
