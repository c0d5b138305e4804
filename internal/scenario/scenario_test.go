package scenario_test

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"peerlab/internal/planetlab" // registers "table1"
	"peerlab/internal/scenario"
)

func TestParseGenerators(t *testing.T) {
	sc, err := scenario.Parse("uniform:16")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "uniform:16" || len(sc.Labels) != 16 {
		t.Fatalf("uniform:16 parsed as %q with %d labels", sc.Name, len(sc.Labels))
	}
	if got := len(sc.Synthesize(1)); got != 16 {
		t.Fatalf("catalog has %d peers, want 16", got)
	}
	sc, err = scenario.Parse("heterogeneous:128")
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Synthesize(7)) != 128 {
		t.Fatal("heterogeneous:128 did not synthesize 128 peers")
	}
	for _, bad := range []string{"uniform:0", "uniform:-3", "uniform:x", "pareto:9", "bogus"} {
		if _, err := scenario.Parse(bad); err == nil {
			t.Fatalf("Parse(%q) accepted", bad)
		}
	}
}

func TestParseRegisteredTable1(t *testing.T) {
	sc, err := scenario.Parse("table1")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Name != "table1" {
		t.Fatalf("name = %q", sc.Name)
	}
	if len(sc.Labels) != 8 || sc.Labels[0] != "SC1" || sc.Labels[7] != "SC8" {
		t.Fatalf("labels = %v", sc.Labels)
	}
	// The catalog is the calibration: seed-independent and identical to
	// planetlab.SCPeers.
	a, b := sc.Synthesize(1), sc.Synthesize(99)
	want := planetlab.SCPeers()
	if len(a) != len(want) {
		t.Fatalf("catalog size %d, want %d", len(a), len(want))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("table1 catalog depends on the seed at %d", i)
		}
		if a[i].Label != want[i].Label || a[i].Hostname != want[i].Hostname ||
			a[i].Profile != want[i].Profile {
			t.Fatalf("table1 peer %d = %+v, want calibrated %+v", i, a[i], want[i])
		}
	}
	if sc.Control.Hostname != "nozomi.lsi.upc.edu" {
		t.Fatalf("control = %q", sc.Control.Hostname)
	}
}

// TestSynthesisIsSeedDeterministic pins the scenario-layer determinism
// contract: the same seed yields an identical catalog — labels, hostnames
// and every profile field — no matter how many times (or from how many
// workers) it is synthesized, while different seeds draw different worlds.
func TestSynthesisIsSeedDeterministic(t *testing.T) {
	for _, spec := range []string{"uniform:32", "heterogeneous:64"} {
		sc, err := scenario.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		a, b := sc.Synthesize(2007), sc.Synthesize(2007)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("%s: same seed diverged at peer %d: %+v vs %+v", spec, i, a[i], b[i])
			}
		}
		c := sc.Synthesize(2008)
		same := true
		for i := range a {
			if a[i].Profile != c[i].Profile {
				same = false
			}
		}
		if same {
			t.Fatalf("%s: seeds 2007 and 2008 drew identical profiles", spec)
		}
	}
}

func TestHeterogeneousMixture(t *testing.T) {
	sc := scenario.Heterogeneous(128)
	cat := sc.Synthesize(2007)
	var loaded, healthy int
	minBW, maxBW := cat[0].Profile.Bandwidth, cat[0].Profile.Bandwidth
	for _, p := range cat {
		if p.Profile.WakeLag > 0 {
			loaded++
		} else {
			healthy++
		}
		if p.Profile.Bandwidth < minBW {
			minBW = p.Profile.Bandwidth
		}
		if p.Profile.Bandwidth > maxBW {
			maxBW = p.Profile.Bandwidth
		}
		if p.Profile.Bandwidth <= 0 || p.Profile.CPUScore <= 0 || p.Profile.MTBF <= 0 {
			t.Fatalf("peer %s has an invalid profile: %+v", p.Label, p.Profile)
		}
	}
	// ~50% of peers are healthy and ~50% loaded/pathological; require both
	// classes to be well represented at this seed.
	if healthy < 32 || loaded < 32 {
		t.Fatalf("mixture collapsed: %d healthy, %d loaded of 128", healthy, loaded)
	}
	// The bandwidth spread must cover the heterogeneity the paper measured:
	// the best link several times the worst.
	if maxBW < 2*minBW {
		t.Fatalf("bandwidth spread too narrow: [%.0f, %.0f]", minBW, maxBW)
	}
}

func TestUniformIsNarrow(t *testing.T) {
	cat := scenario.Uniform(64).Synthesize(2007)
	for _, p := range cat {
		if p.Profile.WakeLag != 0 {
			t.Fatalf("uniform peer %s has wake lag %v", p.Label, p.Profile.WakeLag)
		}
		if p.Profile.Bandwidth < 1.0e6 || p.Profile.Bandwidth > 1.4e6 {
			t.Fatalf("uniform peer %s bandwidth %.0f outside band", p.Label, p.Profile.Bandwidth)
		}
	}
}

func TestDeploy(t *testing.T) {
	sc := scenario.Heterogeneous(12)
	sl, err := scenario.Deploy(sc, 5)
	if err != nil {
		t.Fatal(err)
	}
	if sl.Control == nil || sl.Control.Name() != sc.Control.Hostname {
		t.Fatalf("control = %v", sl.Control)
	}
	if len(sl.Peers) != 12 || len(sl.Catalog) != 12 {
		t.Fatalf("deployed %d/%d peers, want 12", len(sl.Peers), len(sl.Catalog))
	}
	for _, p := range sl.Catalog {
		node := sl.Peers[p.Label]
		if node == nil || node.Name() != p.Hostname {
			t.Fatalf("peer %s not deployed as %s", p.Label, p.Hostname)
		}
	}
	if _, err := scenario.Deploy(scenario.Scenario{}, 1); err == nil {
		t.Fatal("Deploy of zero scenario accepted")
	}
}

// TestCatalogEntriesIndependent: catalog entry i does not depend on its
// neighbours, so a subset deployment of any scenario holds, for every label
// it was asked for, exactly the entry the whole catalog holds — node and all.
func TestCatalogEntriesIndependent(t *testing.T) {
	for _, spec := range []string{"table1", "uniform:24", "heterogeneous:24", "zipf:24", "churn:24", "faults:24"} {
		sc, err := scenario.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, seed := range []int64{1, 2007} {
			whole := sc.Synthesize(seed)
			index := make(map[string]int, len(whole))
			for i, p := range whole {
				index[p.Label] = i
			}
			for _, pick := range [][]int{{0}, {len(whole) - 1}, {5, 2}, {1, 3, 4, 7}} {
				var labels []string
				for _, i := range pick {
					labels = append(labels, sc.Labels[i])
				}
				sl, err := scenario.DeployPeers(sc, seed, labels)
				if err != nil {
					t.Fatalf("%s seed %d: DeployPeers(%v): %v", spec, seed, labels, err)
				}
				for _, l := range labels {
					if sl.Peers[l] == nil {
						t.Fatalf("%s seed %d: DeployPeers(%v) left %s out", spec, seed, labels, l)
					}
				}
				for _, p := range sl.Catalog {
					i, ok := index[p.Label]
					if !ok || p != whole[i] || sl.Peers[p.Label].Name() != whole[i].Hostname {
						t.Fatalf("%s seed %d: DeployPeers(%v) holds %+v, the catalog %+v", spec, seed, labels, p, whole[i])
					}
				}
			}
		}
	}
	if _, err := scenario.DeployPeers(scenario.Uniform(4), 1, []string{"p404"}); err == nil {
		t.Fatal("DeployPeers accepted a label outside the catalog")
	}
}

func TestFig6HintsAreInCatalog(t *testing.T) {
	for _, spec := range []string{"table1", "uniform:3", "heterogeneous:128"} {
		sc, err := scenario.Parse(spec)
		if err != nil {
			t.Fatal(err)
		}
		inLabels := func(l string) bool {
			for _, have := range sc.Labels {
				if have == l {
					return true
				}
			}
			return false
		}
		if len(sc.Remembered) == 0 || len(sc.Blemished) == 0 {
			t.Fatalf("%s: missing fig6 hints", spec)
		}
		for _, l := range append(append([]string{}, sc.Remembered...), sc.Blemished...) {
			if !inLabels(l) {
				t.Fatalf("%s: hint %q not a measured label", spec, l)
			}
		}
	}
}

func TestRegisteredNames(t *testing.T) {
	if names := scenario.Registered(); !strings.Contains(strings.Join(names, ","), "table1") {
		t.Fatalf("registered = %v, want table1 present", names)
	}
}

// Synthetic profiles must carry the substrate models the figures depend on
// (degradation behind Figure 5, engaged windows behind Figure 2).
func TestSyntheticProfilesCarrySubstrateModels(t *testing.T) {
	for _, p := range scenario.Heterogeneous(16).Synthesize(3) {
		if p.Profile.DegradeRefBytes <= 0 || p.Profile.DegradeExp <= 0 {
			t.Fatalf("%s missing degradation model", p.Label)
		}
		if p.Profile.WakeLag > 0 && p.Profile.EngagedWindow != 30*time.Second {
			t.Fatalf("%s wake lag without engaged window", p.Label)
		}
	}
}

func TestZipfBandwidthSkew(t *testing.T) {
	sc, err := scenario.Parse("zipf:32")
	if err != nil {
		t.Fatal(err)
	}
	cat := sc.Synthesize(3)
	if len(cat) != 32 {
		t.Fatalf("catalog has %d peers", len(cat))
	}
	head, tail := cat[0].Profile.Bandwidth, cat[31].Profile.Bandwidth
	if head < 4*tail {
		t.Fatalf("no Zipf skew: head %.0f vs tail %.0f", head, tail)
	}
	// Identical seeds must redraw the identical catalog (purity), and the
	// wobble must keep the curve monotone-ish only in expectation — but
	// the head must always beat the deep tail.
	if !reflect.DeepEqual(cat, sc.Synthesize(3)) {
		t.Fatal("zipf catalog is not a pure function of the seed")
	}
}

func TestChurnScheduleIsSeedDeterministic(t *testing.T) {
	sc, err := scenario.Parse("churn:24")
	if err != nil {
		t.Fatal(err)
	}
	if sc.Churn == nil || sc.Horizon <= 0 || sc.AdvTTL <= 0 {
		t.Fatal("churn scenario lacks schedule or lease hints")
	}
	a, b := sc.Churn(11), sc.Churn(11)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("schedule is not a pure function of the seed")
	}
	if reflect.DeepEqual(a, sc.Churn(12)) {
		t.Fatal("different seeds drew identical schedules")
	}
	for i, e := range a {
		if e.At < 0 || e.At >= sc.Horizon {
			t.Fatalf("event %d at %v outside [0, horizon)", i, e.At)
		}
	}
	sorted := append([]scenario.ChurnEvent(nil), a...)
	scenario.SortChurnEvents(sorted)
	if !reflect.DeepEqual(a, sorted) {
		t.Fatal("schedule not returned in canonical order")
	}
	// Every peer joins at least once, and some churn actually happens.
	joined := map[string]bool{}
	leaves := 0
	for _, e := range a {
		if e.Kind == scenario.ChurnJoin {
			joined[e.Label] = true
		} else {
			leaves++
		}
	}
	if len(joined) != 24 {
		t.Fatalf("only %d of 24 peers ever join", len(joined))
	}
	if leaves == 0 {
		t.Fatal("schedule has no departures")
	}
}

func TestChurnCatalogCarriesSites(t *testing.T) {
	sc, err := scenario.Parse("churn:20")
	if err != nil {
		t.Fatal(err)
	}
	cat := sc.Synthesize(5)
	sites := map[string]int{}
	for _, p := range cat {
		if p.Site == "" {
			t.Fatalf("peer %s has no site", p.Label)
		}
		sites[p.Site]++
	}
	if len(sites) < 2 {
		t.Fatalf("only %d sites across 20 peers", len(sites))
	}
}
