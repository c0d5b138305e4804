package experiments

import (
	"testing"

	"peerlab/internal/scenario"
	"peerlab/internal/vtime"
	"peerlab/internal/workload"
)

// TestRepeatedCellSpawnsNoCoroutine is the end-of-cell leak check on the
// shared coroutine pool: a finished cell must hand back every coroutine it
// took, so running the same cell again is served entirely from the idle
// list. A process left parked when its world quiesces — a standing service
// waiting on a queue nobody will push to again — keeps its coroutine, and
// every repeat of the cell then creates that many more. Not parallel: the
// pool is process-wide, and another test's worlds would move its counts.
func TestRepeatedCellSpawnsNoCoroutine(t *testing.T) {
	cells := []struct{ scenario, workload string }{
		{"heterogeneous:16", "swarm:16"},
		{"churn:16", "swarm:16"},
		{"faults:16", "swarm:16"},
		{"zipf:16", "disseminate:16"},
	}
	for _, c := range cells {
		sc, err := scenario.Parse(c.scenario)
		if err != nil {
			t.Fatal(err)
		}
		w, err := workload.Parse(c.workload)
		if err != nil {
			t.Fatal(err)
		}
		cfg := Config{Seed: 29, Reps: 1, Workers: 1, Scenario: sc, Workload: w}
		for run := 1; run <= 3; run++ {
			before, _ := vtime.SharedPool().Stats()
			if _, err := RunWorkload(cfg); err != nil {
				t.Fatalf("%s × %s run %d: %v", c.scenario, c.workload, run, err)
			}
			after, _ := vtime.SharedPool().Stats()
			if run > 1 && after != before {
				t.Errorf("%s × %s run %d created %d coroutines; a repeat of a finished cell should create none",
					c.scenario, c.workload, run, after-before)
			}
		}
	}
}
