package experiments

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// TestRunWorkloadDefaultsToControllerFanout pins the compatibility default:
// with no workload configured, RunWorkload reproduces the paper's traffic
// shape — every flow sourced at the control node, one per measured peer.
func TestRunWorkloadDefaultsToControllerFanout(t *testing.T) {
	report, err := RunWorkload(Config{Seed: 5, Reps: 2, Scenario: scenario.Uniform(4)})
	if err != nil {
		t.Fatal(err)
	}
	if report.Workload != "controller-fanout" {
		t.Fatalf("workload = %q", report.Workload)
	}
	if len(report.Flows) != 2*4 {
		t.Fatalf("flows = %d, want reps*peers = 8", len(report.Flows))
	}
	for _, f := range report.Flows {
		if f.Source != "control" {
			t.Fatalf("flow %+v not controller-sourced", f)
		}
		if f.Attempts < 1 || f.TransmissionSeconds <= 0 {
			t.Fatalf("flow %+v has no measurement", f)
		}
	}
	if report.Summary.Flows != 8 || report.Summary.TotalBytes <= 0 {
		t.Fatalf("summary = %+v", report.Summary)
	}
}

// TestRunWorkloadScenarioHint pins the hint chain: a scenario may name the
// workload that exercises it, and RunWorkload resolves it when the config
// leaves the workload unset.
func TestRunWorkloadScenarioHint(t *testing.T) {
	sc := scenario.Uniform(3)
	sc.Workload = "allpairs:2"
	report, err := RunWorkload(Config{Seed: 5, Reps: 1, Scenario: sc})
	if err != nil {
		t.Fatal(err)
	}
	if report.Workload != "allpairs:2" || len(report.Flows) != 2 {
		t.Fatalf("report = %s with %d flows, want allpairs:2 with 2", report.Workload, len(report.Flows))
	}
	// An explicit config workload still wins over the hint.
	report, err = RunWorkload(Config{Seed: 5, Reps: 1, Scenario: sc, Workload: workload.ControllerFanout()})
	if err != nil {
		t.Fatal(err)
	}
	if report.Workload != "controller-fanout" {
		t.Fatalf("explicit workload lost to the hint: %s", report.Workload)
	}
}

// TestSwarmWorkloadWorkerAndShardInvariant pins the tentpole determinism
// contract on the multi-source path: a swarm report — concurrent peer
// sources, each calling the broker's selection service — is bit-identical at
// any worker count and any broker shard count.
func TestSwarmWorkloadWorkerAndShardInvariant(t *testing.T) {
	base := Config{Seed: 91, Reps: 2, Scenario: scenario.Heterogeneous(10), Workload: workload.Swarm(8)}

	serial, parallel, sharded := base, base, base
	serial.Workers = 1
	parallel.Workers = 4
	sharded.Workers = 4
	sharded.Shards = 4

	a, err := RunWorkload(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(parallel)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunWorkload(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) {
		t.Fatalf("worker counts diverged:\n1: %+v\n4: %+v", a.Flows, b.Flows)
	}
	if !reflect.DeepEqual(a.Flows, c.Flows) {
		t.Fatalf("shard counts diverged:\n1: %+v\n4: %+v", a.Flows, c.Flows)
	}
	if !reflect.DeepEqual(a.Summary, c.Summary) {
		t.Fatalf("summaries diverged: %+v vs %+v", a.Summary, c.Summary)
	}
	// The swarm actually was multi-source with selected sinks.
	for _, f := range a.Flows {
		if f.Source == "control" {
			t.Fatalf("swarm flow sourced at the control node: %+v", f)
		}
		if f.Model == "" || f.Sink == "" || f.Sink == f.Source {
			t.Fatalf("swarm flow not model-selected peer↔peer: %+v", f)
		}
	}
}

// TestAllPairsParticipantScope pins participant-scoped booting: an
// allpairs:3 workload on a 16-peer slice touches exactly the first three
// labels.
func TestAllPairsParticipantScope(t *testing.T) {
	sc := scenario.Uniform(16)
	report, err := RunWorkload(Config{Seed: 7, Reps: 1, Scenario: sc, Workload: workload.AllPairs(3)})
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Flows) != 6 {
		t.Fatalf("flows = %d, want 6", len(report.Flows))
	}
	first := map[string]bool{sc.Labels[0]: true, sc.Labels[1]: true, sc.Labels[2]: true}
	for _, f := range report.Flows {
		if !first[f.Source] || !first[f.Sink] {
			t.Fatalf("flow %+v outside the first three labels", f)
		}
	}
}

func TestParticipants(t *testing.T) {
	fixed := []workload.Flow{
		{Source: "a", Sink: "b"},
		{Source: "", Sink: "c"},
		{Source: "a", Sink: "c"},
	}
	got := participants(fixed)
	if !reflect.DeepEqual(got, []string{"a", "b", "c"}) {
		t.Fatalf("participants = %v", got)
	}
	if participants([]workload.Flow{{Source: "a"}}) != nil {
		t.Fatal("model-selected flow must boot the whole slice")
	}
}

// TestChurnWorkloadInvariants pins the churn tentpole end to end: a swarm
// over a churning scenario (a) is bit-identical at any worker and shard
// count, (b) counts real departures, (c) never records a stale selection —
// the broker must not hand out a peer whose lease had certainly expired —
// and (d) records failures instead of aborting when flows hit departed
// peers.
func TestChurnWorkloadInvariants(t *testing.T) {
	sc, err := scenario.Parse("churn:16")
	if err != nil {
		t.Fatal(err)
	}
	base := Config{Seed: 2007, Reps: 2, Scenario: sc, Workload: workload.Swarm(16)}
	// At this size the conductor keeps to its schedule, so no cell may say
	// otherwise (see TestLateScheduleIsLaggedNotStale for a size where it
	// cannot).
	base.logf = func(format string, args ...any) {
		if strings.Contains(format, "churn schedule ran") {
			t.Errorf(format, args...)
		}
	}

	serial, parallel, sharded := base, base, base
	serial.Workers = 1
	parallel.Workers = 4
	sharded.Workers = 4
	sharded.Shards = 3

	a, err := RunWorkload(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunWorkload(parallel)
	if err != nil {
		t.Fatal(err)
	}
	c, err := RunWorkload(sharded)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) || !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Fatalf("worker counts diverged under churn:\n1: %+v\n4: %+v", a.Summary, b.Summary)
	}
	if !reflect.DeepEqual(a.Flows, c.Flows) || !reflect.DeepEqual(a.Summary, c.Summary) {
		t.Fatalf("shard counts diverged under churn:\n1: %+v\n3: %+v", a.Summary, c.Summary)
	}

	s := a.Summary
	if s.SelectionsStale != 0 {
		t.Fatalf("%d stale selections handed out after lease expiry", s.SelectionsStale)
	}
	if s.PeersDeparted == 0 {
		t.Fatal("churn scenario produced no departures")
	}
	completed := 0
	for _, f := range a.Flows {
		if f.Failed {
			if f.Error == "" {
				t.Fatalf("failed flow without cause: %+v", f)
			}
			continue
		}
		completed++
		if f.TransmissionSeconds <= 0 {
			t.Fatalf("completed flow without measurement: %+v", f)
		}
	}
	if completed == 0 {
		t.Fatal("no flow completed under churn")
	}
	if s.FailedFlows != len(a.Flows)-completed {
		t.Fatalf("summary counts %d failed, records show %d", s.FailedFlows, len(a.Flows)-completed)
	}
}

// TestLateScheduleIsLaggedNotStale runs the cell that used to report 45 stale
// selections, all of one sink. The conductor boots the ~2 300 initial peers
// of churn:3072 one registration at a time, which takes longer than the
// two-minute minimum session: the schedule and heartbeat processes start
// 2m39 late, the missed heartbeat ticks fire back to back, and a peer whose
// leave was due at 2m25 renews its lease at 3m00 before the leave is applied
// at 3m04. The broker then hands it out for one more TTL, rightly — it was
// up and renewing. The audit must allow for the lag the conductor reports
// (lagged, not stale) and the cell must say that its schedule ran late.
func TestLateScheduleIsLaggedNotStale(t *testing.T) {
	if testing.Short() {
		t.Skip("boots 3 072 churning peers (~7 s)")
	}
	sc, err := scenario.Parse("churn:3072")
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	report, err := RunWorkload(Config{Seed: 2, Reps: 1, Workers: 1, Scenario: sc, Workload: workload.Swarm(1024),
		logf: func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }})
	if err != nil {
		t.Fatal(err)
	}
	if s := report.Summary; s.SelectionsStale != 0 || s.SelectionsLagged == 0 {
		t.Fatalf("%d stale and %d lagged selections, want none stale and some lagged", s.SelectionsStale, s.SelectionsLagged)
	}
	late := 0
	for _, w := range warnings {
		if strings.Contains(w, "the churn schedule ran up to") && strings.Contains(w, "initial peers took") {
			late++
		}
	}
	if late != 1 {
		t.Fatalf("%d schedule-lag warnings among %q, want 1", late, warnings)
	}
}

// TestLagWarningNamesTheLateTransition: on churn:16 × swarm:16, seed 1, the
// initial peers boot in about a second, but the rejoin of p001 due at
// 6m5.144s waits out its peer's wake lag and registers 17.668s late, and the
// schedule process is blocked behind it. The one lag warning must name that
// join as where the schedule fell behind.
func TestLagWarningNamesTheLateTransition(t *testing.T) {
	sc, err := scenario.Parse("churn:16")
	if err != nil {
		t.Fatal(err)
	}
	var warnings []string
	if _, err := RunWorkload(Config{Seed: 1, Reps: 1, Workers: 1, Scenario: sc, Workload: workload.Swarm(16),
		logf: func(format string, args ...any) { warnings = append(warnings, fmt.Sprintf(format, args...)) }}); err != nil {
		t.Fatal(err)
	}
	late := 0
	for _, w := range warnings {
		if strings.Contains(w, "the churn schedule ran up to") {
			late++
			if !strings.Contains(w, "17.668s late, at the join of p001 due at 6m5.144s") {
				t.Errorf("lag warning %q does not name the join of p001", w)
			}
		}
	}
	if late != 1 {
		t.Fatalf("%d schedule-lag warnings among %q, want 1", late, warnings)
	}
}

// TestStaticScenarioHasNoChurnCounters pins the static compatibility
// surface: without a churn schedule the new summary counters stay zero and
// no flow is ever marked failed (a failure aborts the run instead).
func TestStaticScenarioHasNoChurnCounters(t *testing.T) {
	report, err := RunWorkload(Config{Seed: 5, Reps: 1, Scenario: scenario.Uniform(4), Workload: workload.Swarm(4)})
	if err != nil {
		t.Fatal(err)
	}
	s := report.Summary
	if s.PeersDeparted != 0 || s.SelectionsStale != 0 || s.SelectionsLagged != 0 || s.FailedFlows != 0 {
		t.Fatalf("static run grew churn counters: %+v", s)
	}
	for _, f := range report.Flows {
		if f.Failed || f.Error != "" {
			t.Fatalf("static flow marked failed: %+v", f)
		}
	}
}
