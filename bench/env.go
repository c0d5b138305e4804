package main

import (
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strconv"
	"strings"
)

// envHeader states the conditions a result was measured under. Every result
// file carries it, and a comparison names every field on which its two
// sides differ: a number without its conditions cannot be repeated.
type envHeader struct {
	Commit     string  `json:"commit"`
	GoVersion  string  `json:"go_version"`
	NumCPU     int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"` // pinned in every child
	GOGC       string  `json:"gogc"`       // pinned in every child
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Seconds    float64 `json:"seconds,omitempty"` // measuring window, when -runs is unset
	Runs       int     `json:"runs,omitempty"`    // fixed run count, when set
	LoadAvg1   float64 `json:"loadavg_1m"`        // at start
}

func readEnv(o options, procs int) envHeader {
	e := envHeader{
		Commit:     commit(),
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: procs,
		GOGC:       pinnedGOGC,
		CPUModel:   cpuModel(),
		Seed:       o.seed,
		LoadAvg1:   loadAvg1(),
	}
	if o.runs > 0 {
		e.Runs = o.runs
	} else {
		e.Seconds = o.seconds
	}
	return e
}

// commit names the checked-out commit, marked dirty when the tree differs
// from it, or "unknown" when the working directory is not the root of a git
// checkout. git is kept from searching the parent directories: a checkout
// unpacked inside some other repository is not that repository's commit.
func commit() string {
	git := func(args ...string) (string, error) {
		cmd := exec.Command("git", args...)
		if cwd, err := os.Getwd(); err == nil {
			cmd.Env = append(os.Environ(), "GIT_CEILING_DIRECTORIES="+filepath.Dir(cwd))
		}
		out, err := cmd.Output()
		return strings.TrimSpace(string(out)), err
	}
	rev, err := git("rev-parse", "--short=12", "HEAD")
	if err != nil {
		return "unknown"
	}
	if st, err := git("status", "--porcelain"); err == nil && st != "" {
		rev += "-dirty"
	}
	return rev
}

func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if key, val, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(key) == "model name" {
			return strings.TrimSpace(val)
		}
	}
	return "unknown"
}

func loadAvg1() float64 {
	data, err := os.ReadFile("/proc/loadavg")
	if err != nil {
		return 0
	}
	fields := strings.Fields(string(data))
	if len(fields) == 0 {
		return 0
	}
	v, _ := strconv.ParseFloat(fields[0], 64) // 0 when unreadable, like a missing file
	return v
}

func (e envHeader) print(w io.Writer) {
	fmt.Fprintf(w, "# commit %s  %s  nproc %d  GOMAXPROCS %d  GOGC %s  seed %d  load %.2f\n# cpu %s\n",
		e.Commit, e.GoVersion, e.NumCPU, e.GOMAXPROCS, e.GOGC, e.Seed, e.LoadAvg1, e.CPUModel)
	if e.LoadAvg1 > 0.5*float64(e.NumCPU) {
		fmt.Fprintf(w, "# WARNING: 1-minute load average %.2f exceeds half the %d cores: wall and CPU times will be noisy\n",
			e.LoadAvg1, e.NumCPU)
	}
}

// differences lists the header fields on which two results differ, seed and
// run settings included: comparing across any of them compares conditions,
// not commits.
func (e envHeader) differences(o envHeader) []string {
	var d []string
	add := func(name string, a, b any) {
		if a != b {
			d = append(d, fmt.Sprintf("%s: %v vs %v", name, a, b))
		}
	}
	add("go version", e.GoVersion, o.GoVersion)
	add("nproc", e.NumCPU, o.NumCPU)
	add("GOMAXPROCS", e.GOMAXPROCS, o.GOMAXPROCS)
	add("GOGC", e.GOGC, o.GOGC)
	add("cpu model", e.CPUModel, o.CPUModel)
	add("seed", e.Seed, o.Seed)
	add("seconds", e.Seconds, o.Seconds)
	add("runs", e.Runs, o.Runs)
	return d
}
