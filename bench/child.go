package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"log"
	"os"
	"runtime"
	"runtime/pprof"
	"sync/atomic"
	"syscall"
	"time"
)

// Child modes. Every measured run is its own process so that wall time, CPU
// time, peak RSS and allocation counts belong to that run alone and nothing
// — worker pool, heap, page cache of the binary aside — is warm from the
// last one.
const (
	modeSetup  = "setup"  // print the ready line and exit: one set-up sample
	modeRun    = "run"    // one untraced measured call
	modeTraced = "traced" // the same call under a CPU and an allocation profile
	modeStaged = "staged" // a static cell replayed stage by stage
	modeProbes = "probes" // the layer probes
)

// readyLine is what a child prints once the runtime and every package have
// initialised, the spec is parsed and the configuration built. The parent's
// clock from exec to this line is the set-up time.
const readyLine = "ready"

// tracedCPUHz is the traced run's CPU sampling rate. At the default 100 Hz a
// two-second run yields some 250 samples and a 2 % layer five of them.
const tracedCPUHz = 500

// tracedMemRate is the traced run's allocation sampling period in bytes
// (the runtime's default is 512 KiB).
const tracedMemRate = 64 << 10

// runResult is what a run or traced child reports on its standard output.
type runResult struct {
	outcome
	WallS     float64  `json:"wall_s"`
	CPUS      float64  `json:"cpu_s"`
	PeakRSSMB float64  `json:"peak_rss_mb"`
	AllocsM   float64  `json:"allocs_m"`
	AllocGB   float64  `json:"alloc_gb"`
	Warnings  int64    `json:"warnings"` // lines the program logged (relaunch budgets exhausted)
	StartNS   int64    `json:"start_ns"` // the measured call, Unix ns
	EndNS     int64    `json:"end_ns"`
	Violation []string `json:"violations,omitempty"`
}

// lineCounter counts what the program under test logs instead of letting it
// interleave with the benchmark's output.
type lineCounter struct{ n atomic.Int64 }

func (c *lineCounter) Write(p []byte) (int, error) {
	c.n.Add(1)
	return len(p), nil
}

// childMain runs one child mode and writes its JSON result to stdout.
func childMain(mode string, o options) error {
	if mode == modeTraced {
		// Before the first allocation the profile should see.
		runtime.MemProfileRate = tracedMemRate
	}
	var warnings lineCounter
	log.SetOutput(&warnings)

	var p plan
	if mode != modeProbes {
		spec, ok := findWorkload(o.workload)
		if !ok {
			return fmt.Errorf("unknown workload %q", o.workload)
		}
		var err error
		if p, err = spec.resolve(o.seed, o.quick); err != nil {
			return err
		}
	}
	fmt.Println(readyLine)

	var result any
	switch mode {
	case modeSetup:
		return nil
	case modeRun, modeTraced:
		r, err := measuredRun(p, mode == modeTraced, o)
		if err != nil {
			return err
		}
		r.Warnings = warnings.n.Load()
		result = r
	case modeStaged:
		r, err := stagedRun(p)
		if err != nil {
			return err
		}
		result = r
	case modeProbes:
		result = runProbes(o.seed, o.quick)
	default:
		return fmt.Errorf("unknown child mode %q", mode)
	}
	return json.NewEncoder(os.Stdout).Encode(result)
}

// measuredRun makes the one call and measures around it. Everything the
// end-to-end metrics report is read here, in the process that did the work:
// wall time of the call alone, CPU and allocation deltas across it, and the
// peak RSS once it returns.
func measuredRun(p plan, traced bool, o options) (runResult, error) {
	var stop func() error
	if traced {
		var err error
		if stop, err = startProfiles(o.cpuProfile, o.memProfile); err != nil {
			return runResult{}, err
		}
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuTime()
	start := time.Now()
	report, err := p.call()
	end := time.Now()
	cpu1 := cpuTime()
	runtime.ReadMemStats(&m1)
	rss := peakRSSMB()
	if stop != nil {
		if perr := stop(); perr != nil && err == nil {
			err = perr
		}
	}
	if err != nil {
		return runResult{}, err
	}
	out, err := digest(report)
	if err != nil {
		return runResult{}, err
	}
	return runResult{
		outcome:   out,
		WallS:     end.Sub(start).Seconds(),
		CPUS:      (cpu1 - cpu0).Seconds(),
		PeakRSSMB: rss,
		AllocsM:   float64(m1.Mallocs-m0.Mallocs) / 1e6,
		AllocGB:   float64(m1.TotalAlloc-m0.TotalAlloc) / 1e9,
		StartNS:   start.UnixNano(),
		EndNS:     end.UnixNano(),
		Violation: p.check(out),
	}, nil
}

// startProfiles starts the CPU profile and returns the function that stops
// it and writes the allocation profile. The profiles are recorded here, in
// bench/'s own code around the call; the program under test is not told.
func startProfiles(cpuPath, memPath string) (func() error, error) {
	if cpuPath == "" || memPath == "" {
		return nil, errors.New("traced child needs -cpuprofile and -memprofile")
	}
	cpuFile, err := os.Create(cpuPath)
	if err != nil {
		return nil, err
	}
	// pprof.StartCPUProfile insists on its own 100 Hz and only logs that it
	// could not have it when the rate is already set; the samples are taken
	// at the rate set here. Attribution uses sample counts, not the
	// profile's idea of their period.
	runtime.SetCPUProfileRate(tracedCPUHz)
	if err := pprof.StartCPUProfile(cpuFile); err != nil {
		cpuFile.Close()
		return nil, err
	}
	return func() error {
		pprof.StopCPUProfile()
		if err := cpuFile.Close(); err != nil {
			return err
		}
		memFile, err := os.Create(memPath)
		if err != nil {
			return err
		}
		runtime.GC() // the allocation profile is as of the last collection
		if err := pprof.Lookup("allocs").WriteTo(memFile, 0); err != nil {
			memFile.Close()
			return err
		}
		return memFile.Close()
	}, nil
}

// cpuTime is the process's user plus system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// peakRSSMB is the process's peak resident set (ru_maxrss, KiB on Linux).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024
}
