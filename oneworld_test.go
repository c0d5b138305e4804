package peerlab

import (
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestOneWorldBuilder holds the line DESIGN.md "Experiment ownership" draws:
// experiments.Env is the only place a world is built. The facade constructs
// no network, broker or client of its own, and outside bench/ and cmd/ one
// non-test file builds the workload.Env and the broker.
func TestOneWorldBuilder(t *testing.T) {
	facade, err := os.ReadFile("peerlab.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, call := range []string{"overlay.NewBroker(", "overlay.NewClient(", "simnet.New(", "scenario.Deploy("} {
		if strings.Contains(string(facade), call) {
			t.Errorf("peerlab.go calls %s...): the facade must get its world from experiments.NewEnv", call)
		}
	}
	sites := map[string][]string{"workload.Env{": nil, "overlay.NewBroker(": nil}
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (path == "bench" || path == "cmd") {
			// bench/ replays a cell stage by stage; cmd/broker serves real TCP.
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for lit := range sites {
			for range strings.Count(string(src), lit) {
				sites[lit] = append(sites[lit], path)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for lit, paths := range sites {
		if len(paths) != 1 || paths[0] != filepath.Join("internal", "experiments", "env.go") {
			t.Errorf("%q is built in %v; want internal/experiments/env.go alone", lit, paths)
		}
	}
}
