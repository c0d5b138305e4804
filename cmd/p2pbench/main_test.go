package main

import (
	"bytes"
	"encoding/json"
	"errors"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"peerlab/internal/experiments"
)

// asMain makes the re-executed test binary behave as the command itself.
const asMain = "P2PBENCH_TEST_AS_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(asMain) != "" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// p2pbench runs the command with args and returns its standard output,
// standard error and exit code.
func p2pbench(t *testing.T, args ...string) (stdout, stderr string, code int) {
	t.Helper()
	cmd := exec.Command(os.Args[0], args...)
	cmd.Env = append(os.Environ(), asMain+"=1")
	var out, errOut bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, &errOut
	err := cmd.Run()
	var exitErr *exec.ExitError
	if errors.As(err, &exitErr) {
		code = exitErr.ExitCode()
	} else if err != nil {
		t.Fatal(err)
	}
	return out.String(), errOut.String(), code
}

// TestRunRecordNamesResolvedInputs: a defaulted flag is reported as what it
// resolved to — the seed, reps, workers and shards the cells derived from —
// so a record never sits over bytes its own inputs would not reproduce.
func TestRunRecordNamesResolvedInputs(t *testing.T) {
	defaulted, stderr, code := p2pbench(t, "-seed", "0", "-reps", "0", "-parallel", "0", "-shards", "0",
		"-experiment", "fig2", "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	var rec struct {
		Seed                  int64
		Reps, Workers, Shards int
	}
	if err := json.Unmarshal([]byte(defaulted), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Seed != 2007 || rec.Reps != 5 || rec.Workers != runtime.GOMAXPROCS(0) || rec.Shards != 1 {
		t.Fatalf("record = %+v, want seed 2007, reps 5, workers %d, shards 1", rec, runtime.GOMAXPROCS(0))
	}
	explicit, stderr, code := p2pbench(t, "-seed", "2007", "-reps", "5", "-shards", "1",
		"-experiment", "fig2", "-format", "json")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if defaulted != explicit {
		t.Fatalf("the defaulted run's output differs from the run its record names:\n%s\nvs\n%s", defaulted, explicit)
	}
}

// TestExperimentLists: "all" is a list item like any other, listed figures
// come out in the order given, and an unknown name exits 2 before any
// experiment runs.
func TestExperimentLists(t *testing.T) {
	names := func(stdout string) string {
		var rec struct {
			Table1  any
			Figures []struct{ Name string }
		}
		if err := json.Unmarshal([]byte(stdout), &rec); err != nil {
			t.Fatal(err)
		}
		var out []string
		if rec.Table1 != nil {
			out = append(out, "table1")
		}
		for _, f := range rec.Figures {
			out = append(out, f.Name)
		}
		return strings.Join(out, " ")
	}
	stdout, stderr, code := p2pbench(t, "-experiment", "fig2,all", "-reps", "1", "-format", "json")
	if code != 0 {
		t.Fatalf("-experiment fig2,all: exit %d: %s", code, stderr)
	}
	if got := names(stdout); got != "table1 fig2 fig2 fig3 fig4 fig5 fig6 fig7" {
		t.Fatalf("-experiment fig2,all listed %q", got)
	}
	stdout, stderr, code = p2pbench(t, "-experiment", "fig4, fig3", "-reps", "1", "-format", "json")
	if code != 0 || names(stdout) != "fig4 fig3" {
		t.Fatalf("-experiment 'fig4, fig3': exit %d, listed %q: %s", code, names(stdout), stderr)
	}
	stdout, stderr, code = p2pbench(t, "-experiment", "fig2,fig9")
	if code != 2 || stdout != "" || !strings.Contains(stderr, `unknown experiment "fig9"`) {
		t.Fatalf("-experiment fig2,fig9: exit %d, stdout %q, stderr %q", code, stdout, stderr)
	}
}

// TestSweepCSVColumns: the sweep CSV's axis columns come from the sweep
// engine's axis table, then rep, and every row carries one value per
// column.
func TestSweepCSVColumns(t *testing.T) {
	stdout, stderr, code := p2pbench(t, "-sweep", "scenario=uniform:2;granularity=1,2;rep=1", "-format", "csv")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	lines := strings.Split(strings.TrimSpace(stdout), "\n")
	header := strings.Split(lines[0], ",")
	if want := strings.Join(append(experiments.SweepColumns(), "rep"), ",") + ","; !strings.HasPrefix(lines[0], want) {
		t.Fatalf("header %q does not start with %q", lines[0], want)
	}
	parts := slices.Index(header, "parts")
	var got []string
	for _, line := range lines[1:] {
		row := strings.Split(line, ",")
		if len(row) != len(header) {
			t.Fatalf("row %q has %d fields, header %d", line, len(row), len(header))
		}
		got = append(got, row[parts])
	}
	if !slices.Equal(got, []string{"1", "2"}) {
		t.Fatalf("parts column = %v, want [1 2]", got)
	}
}

// TestProfilesSurviveAFailedRun: a run that fails still writes its CPU and
// heap profiles, and still exits with the failure's code and message; so does
// one whose trace cannot be opened after its CPU profile started.
func TestProfilesSurviveAFailedRun(t *testing.T) {
	dir := t.TempDir()
	cpu, mem := filepath.Join(dir, "cpu.out"), filepath.Join(dir, "mem.out")
	badTrace := filepath.Join(dir, "missing", "t.out")
	for _, c := range []struct {
		args     []string
		want     string // stderr's first bytes
		profiles []string
	}{
		{[]string{"-cpuprofile", cpu, "-memprofile", mem, "-experiment", "nosuch"}, "p2pbench: unknown experiment \"nosuch\" (want ", []string{cpu, mem}},
		{[]string{"-cpuprofile", cpu, "-trace", badTrace}, "p2pbench: open " + badTrace + ": ", []string{cpu}},
	} {
		for _, f := range c.profiles {
			os.Remove(f)
		}
		stdout, stderr, code := p2pbench(t, c.args...)
		if code != 2 || stdout != "" || !strings.HasPrefix(stderr, c.want) || strings.Count(stderr, "\n") != 1 {
			t.Fatalf("%v: exit %d, stdout %q, stderr %q; want exit 2 and one line starting %q", c.args, code, stdout, stderr, c.want)
		}
		for _, f := range c.profiles {
			if fi, err := os.Stat(f); err != nil || fi.Size() == 0 {
				t.Errorf("%v: profile %s not written (%v)", c.args, f, err)
			}
		}
	}
}
