package scenario_test

import (
	"reflect"
	"testing"
	"time"

	"peerlab/internal/scenario"
)

func TestFaultScheduleIsSeedDeterministic(t *testing.T) {
	sc, err := scenario.Parse("faults:24")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Faults == nil || sc.FaultRate == nil {
		t.Fatal("faults scenario lacks a fault plan or rate hook")
	}
	if sc.Churn == nil || sc.Horizon <= 0 || sc.AdvTTL <= 0 {
		t.Fatal("faults scenario must ride the churn runtime (schedule + lease hints)")
	}
	a, b := sc.Faults(11), sc.Faults(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("fault plan is not a pure function of the seed")
	}
	if reflect.DeepEqual(a, sc.Faults(12)) {
		t.Fatal("different seeds drew identical fault plans")
	}
	if len(a) == 0 {
		t.Fatal("rate-1 plan drew no faults at all")
	}
	for i, e := range a {
		if e.At < 0 || e.At+e.Dur > sc.Horizon {
			t.Fatalf("event %d [%v, %v] escapes [0, horizon]", i, e.At, e.At+e.Dur)
		}
		if e.Dur <= 0 {
			t.Fatalf("event %d has non-positive duration %v", i, e.Dur)
		}
		if (e.Kind == scenario.FaultSitePartition) != (e.Site != "") {
			t.Fatalf("event %d: site %q inconsistent with kind %v", i, e.Site, e.Kind)
		}
		if e.Kind == scenario.FaultLossBurst && !(e.Loss > 0 && e.Loss <= 1) {
			t.Fatalf("event %d: loss %v outside (0, 1]", i, e.Loss)
		}
	}
	sorted := append([]scenario.FaultEvent(nil), a...)
	scenario.SortFaultEvents(sorted)
	if !reflect.DeepEqual(a, sorted) {
		t.Fatal("plan not returned in canonical order")
	}
}

// TestFaultMembershipIsStatic pins the faults:N membership contract: every
// peer joins at offset 0 and never leaves — the dynamics under study are the
// control plane's, not the population's.
func TestFaultMembershipIsStatic(t *testing.T) {
	sc, err := scenario.Parse("faults:16")
	if err != nil {
		t.Fatal(err)
	}
	events := sc.Churn(7)
	if len(events) != 16 {
		t.Fatalf("want 16 join events, got %d", len(events))
	}
	for _, e := range events {
		if e.Kind != scenario.ChurnJoin || e.At != 0 {
			t.Fatalf("non-static membership event: %+v", e)
		}
	}
}

// TestFaultRateScalingIsCompareOnly locks the purity rule: schedules at two
// rates agree exactly on every candidate both admit — rate moves admission
// thresholds, never the draws behind a candidate's timing.
func TestFaultRateScalingIsCompareOnly(t *testing.T) {
	base := scenario.Faulty(32)
	double := base.FaultRate(2)
	if double.Name != base.Name {
		t.Fatalf("rating changed the scenario name: %q", double.Name)
	}
	key := func(e scenario.FaultEvent) string {
		return e.Kind.String() + "|" + e.Site + "|" + e.At.String() + "|" + e.Dur.String()
	}
	for seed := int64(1); seed <= 5; seed++ {
		lo, hi := base.Faults(seed), double.Faults(seed)
		if len(hi) < len(lo) {
			t.Fatalf("seed %d: rate 2 admitted fewer events (%d) than rate 1 (%d)", seed, len(hi), len(lo))
		}
		admitted := map[string]bool{}
		for _, e := range hi {
			admitted[key(e)] = true
		}
		for _, e := range lo {
			if !admitted[key(e)] {
				t.Fatalf("seed %d: rate-1 event %+v missing at rate 2 — a draw shifted", seed, e)
			}
		}
	}
}

// TestFaultBlackoutsNeverOverlap pins the phase construction: blackouts live
// in disjoint phases and never straddle a boundary, so broker downtime is
// the plain sum of blackout durations at any rate.
func TestFaultBlackoutsNeverOverlap(t *testing.T) {
	sc := scenario.FaultyRated(16, 100)
	for seed := int64(1); seed <= 10; seed++ {
		var last time.Duration
		for _, e := range sc.Faults(seed) {
			if e.Kind != scenario.FaultBrokerBlackout {
				continue
			}
			if e.At < last {
				t.Fatalf("seed %d: blackout at %v overlaps previous ending %v", seed, e.At, last)
			}
			last = e.At + e.Dur
		}
	}
}
