package experiments

import (
	"testing"

	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// TestDisseminateChurn races piece re-origination against membership churn:
// a dissemination swarm over churn:16 has downloaders departing (and
// rejoining) while they are mid-upload as re-originating sources. Run under
// -race in CI, it is the data-race probe for the piece engine's concurrent
// send fan-out; its assertions pin the accounting invariants — a departure
// may fail a flow, but it must never lose one, double-count its pieces, or
// let a stale selection through.
func TestDisseminateChurn(t *testing.T) {
	sc, err := scenario.Parse("churn:16")
	if err != nil {
		t.Fatal(err)
	}
	w, err := workload.Parse("disseminate:16;pick=rarest;choke=tft")
	if err != nil {
		t.Fatal(err)
	}
	report, err := RunWorkload(Config{Seed: 2007, Reps: 1, Workers: 4, Shards: 2, Scenario: sc, Workload: w})
	if err != nil {
		t.Fatal(err)
	}
	s := report.Summary

	// No lost flows: every flow the generator produced is in the report,
	// failed or not, exactly once.
	if len(report.Flows) != 16 || s.Flows != 16 {
		t.Fatalf("flow accounting lost flows: %d records, summary %d, want 16", len(report.Flows), s.Flows)
	}
	seen := map[int]bool{}
	for _, f := range report.Flows {
		if seen[f.Index] {
			t.Fatalf("flow %d reported twice", f.Index)
		}
		seen[f.Index] = true
	}

	// No lost pieces: the per-flow piece counts and the summary total agree,
	// and partial progress of failed flows is still counted.
	pieces := 0
	for _, f := range report.Flows {
		if f.Pieces < 0 || f.Pieces > 16 {
			t.Fatalf("flow %d pieces out of range: %d", f.Index, f.Pieces)
		}
		pieces += f.Pieces
	}
	if pieces != s.PiecesMoved {
		t.Fatalf("piece accounting split: flows sum to %d, summary says %d", pieces, s.PiecesMoved)
	}
	if s.PiecesMoved == 0 {
		t.Fatal("churned swarm moved no pieces")
	}
	if s.PeersReOriginated == 0 {
		t.Fatal("churned swarm re-originated nothing")
	}

	// The lease discipline holds under the piece engine too: a selection of
	// a certainly-expired peer is a bug regardless of workload family.
	if s.SelectionsStale != 0 {
		t.Fatalf("stale selections under dissemination churn: %d", s.SelectionsStale)
	}
}

// TestFigStreamOrdering pins Rodrigues' qualitative streaming result at
// figure scale: sequential picking must not stall more viewers than
// rarest-first — playback consumes pieces in index order, so in-order
// delivery is the policy that serves it.
func TestFigStreamOrdering(t *testing.T) {
	fig, err := figure("figstream", Config{Seed: 2007, Reps: 1, Workers: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	byPolicy := func(series string) map[string]float64 {
		for _, s := range fig.Series {
			if s.Name != series {
				continue
			}
			out := make(map[string]float64, len(fig.Labels))
			for i, l := range fig.Labels {
				out[l] = s.Values[i]
			}
			return out
		}
		t.Fatalf("figure has no %q series", series)
		return nil
	}
	stalled := byPolicy("stalled flows %")
	if stalled["pick=sequential"] > stalled["pick=rarest"] {
		t.Fatalf("sequential stalled %.1f%% of flows > rarest %.1f%%; playback model inverted",
			stalled["pick=sequential"], stalled["pick=rarest"])
	}
	if stalled["pick=rarest"] == 0 {
		t.Fatal("no flow ever stalled; the deadline curve is not binding")
	}
}
