package faults_test

import (
	"reflect"
	"testing"
	"time"

	"peerlab/internal/faults"
	"peerlab/internal/scenario"
)

func blackout(at, dur time.Duration) scenario.FaultEvent {
	return scenario.FaultEvent{At: at, Dur: dur, Kind: scenario.FaultBrokerBlackout}
}

// TestNewPlanCanonicalizes: a plan holds its events in canonical order
// whatever order they were listed in, and leaves the caller's slice alone.
func TestNewPlanCanonicalizes(t *testing.T) {
	listed := []scenario.FaultEvent{
		{At: 3 * time.Minute, Dur: 45 * time.Second, Kind: scenario.FaultSitePartition, Site: "site-2"},
		blackout(30*time.Second, time.Minute),
		{At: 3 * time.Minute, Dur: 20 * time.Second, Kind: scenario.FaultLossBurst, Loss: 0.35},
	}
	given := append([]scenario.FaultEvent(nil), listed...)
	plan := faults.NewPlan(listed)
	if !reflect.DeepEqual(listed, given) {
		t.Fatal("NewPlan reordered its argument")
	}
	want := append([]scenario.FaultEvent(nil), listed...)
	scenario.SortFaultEvents(want)
	if !reflect.DeepEqual(plan.Events(), want) || reflect.DeepEqual(want, given) {
		t.Fatalf("plan events = %v, want the canonical %v", plan.Events(), want)
	}
}

func TestBrokerDowntimeMergesOverlaps(t *testing.T) {
	plan := faults.NewPlan([]scenario.FaultEvent{
		blackout(time.Minute, 2*time.Minute),
		blackout(2*time.Minute, 2*time.Minute),
		blackout(10*time.Minute, time.Minute),
		{At: 2 * time.Minute, Dur: time.Hour, Kind: scenario.FaultLossBurst, Loss: 0.5}, // not a blackout
	})
	// [1,3] merged with [2,4] is 3m, plus the disjoint 1m.
	if got, want := plan.BrokerDowntime(), 4*time.Minute; got != want {
		t.Fatalf("downtime %v, want %v", got, want)
	}
	if got := faults.NewPlan(nil).BrokerDowntime(); got != 0 {
		t.Fatalf("empty plan is down for %v", got)
	}
}
