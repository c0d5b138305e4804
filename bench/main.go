// Package main is peerlab's benchmark: six seed-deterministic workloads run
// through internal/experiments exactly as p2pbench runs them, each measured
// run in its own child process, with end-to-end metrics a researcher waiting
// for the simulator would notice (host wall time, CPU, memory, allocation)
// and a per-layer attribution from a separate traced run, a staged replay
// and timed probes of each layer's public functions.
//
//	go run ./bench                       every workload, traced runs and probes
//	go run ./bench -workload swarm-4096  one workload
//	go run ./bench -quick                quarter-size smoke, not comparable
//	go run ./bench -compare A.json B.json
//
// With -workload the last line of standard output is one JSON object
// {correct, attempted, failed, metrics}: the end-to-end metrics with
// -trace 0, the per-layer metrics with -trace 1. BENCHMARK.json at the
// repository root declares the metrics; README.md in this directory defines
// them.
package main

import (
	"flag"
	"fmt"
	"os"
)

// options are the command line, shared by the parent and its children.
type options struct {
	workload   string
	seed       int64
	seconds    float64
	runs       int
	trace      string
	quick      bool
	noProbes   bool
	outDir     string
	compare    bool
	child      string
	cpuProfile string
	memProfile string
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "run only this workload and print the one-line JSON result last")
	flag.Int64Var(&o.seed, "seed", 1, "workload seed: every input is derived from it")
	flag.Float64Var(&o.seconds, "seconds", 12, "measuring window per workload: untraced runs repeat while another fits, at least three")
	flag.IntVar(&o.runs, "runs", 0, "make exactly this many untraced runs per workload instead of filling the window")
	flag.StringVar(&o.trace, "trace", "", "0 = untraced runs only (end-to-end metrics), 1 = traced run, staged replay and probes only (per-layer metrics), unset = both")
	flag.BoolVar(&o.quick, "quick", false, "quarter-size workloads, one run each: a smoke test whose numbers are not comparable")
	flag.BoolVar(&o.noProbes, "no-probes", false, "skip the layer probes")
	flag.StringVar(&o.outDir, "out", "bench_out", "directory for the result file, the span trace and the traced runs' profiles")
	flag.BoolVar(&o.compare, "compare", false, "compare two result files: bench -compare PARENT.json CHANGE.json")
	flag.StringVar(&o.child, "child", "", "internal: run one child mode")
	flag.StringVar(&o.cpuProfile, "cpuprofile", "", "internal: traced child's CPU profile path")
	flag.StringVar(&o.memProfile, "memprofile", "", "internal: traced child's allocation profile path")
	flag.Parse()

	var err error
	code := 0
	switch {
	case o.child != "":
		err = childMain(o.child, o)
	case o.compare:
		if flag.NArg() != 2 {
			err = fmt.Errorf("-compare wants two result files, got %d", flag.NArg())
			break
		}
		var regressed bool
		if regressed, err = compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); regressed {
			code = 1
		}
	default:
		if flag.NArg() != 0 {
			err = fmt.Errorf("unexpected arguments %q", flag.Args())
			break
		}
		var correct bool
		if correct, err = parentMain(o); !correct {
			code = 1
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		code = 2
	}
	os.Exit(code)
}
