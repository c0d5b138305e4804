package scenario_test

import (
	"testing"
	"time"

	"peerlab/internal/scenario"
)

func TestCatalogMatchesTable1(t *testing.T) {
	cat := scenario.Table1Hosts()
	if len(cat) != 25 {
		t.Fatalf("catalog has %d hosts, want 25 (Table 1)", len(cat))
	}
	seen := map[string]bool{}
	for _, n := range cat {
		if n.Hostname == "" {
			t.Fatal("empty hostname in catalog")
		}
		if seen[n.Hostname] {
			t.Fatalf("duplicate host %q", n.Hostname)
		}
		seen[n.Hostname] = true
	}
	for _, host := range []string{
		"ait05.us.es", "planetlab1.itwm.fhg.de", "edi.tkn.tu-berlin.de",
		"planet2.scs.stanford.edu", "ricepl1.cs.rice.edu",
	} {
		if !seen[host] {
			t.Fatalf("catalog missing %q", host)
		}
	}
}

func TestSCPeersMatchPaperSection41(t *testing.T) {
	want := map[string]string{
		"SC1": "ait05.us.es",
		"SC2": "planetlab1.hiit.fi",
		"SC3": "planetlab01.cs.tcd.ie",
		"SC4": "planetlab1.csg.unizh.ch",
		"SC5": "edi.tkn.tu-berlin.de",
		"SC6": "lsirextpc01.epfl.ch",
		"SC7": "planetlab1.itwm.fhg.de",
		"SC8": "planetlab1.ssvl.kth.se",
	}
	peers := scenario.Table1().Synthesize(0)
	if len(peers) != 8 {
		t.Fatalf("%d SC peers, want 8", len(peers))
	}
	for _, p := range peers {
		if want[p.Label] != p.Hostname {
			t.Fatalf("%s = %q, want %q", p.Label, p.Hostname, want[p.Label])
		}
	}
}

func TestSCPeersAppearInCatalog(t *testing.T) {
	inCat := map[string]string{}
	for _, n := range scenario.Table1Hosts() {
		if n.SC != "" {
			inCat[n.SC] = n.Hostname
		}
	}
	if len(inCat) != 8 {
		t.Fatalf("catalog marks %d SC peers, want 8", len(inCat))
	}
	for _, p := range scenario.Table1().Synthesize(0) {
		if inCat[p.Label] != p.Hostname {
			t.Fatalf("catalog SC %s = %q, profile says %q", p.Label, inCat[p.Label], p.Hostname)
		}
	}
}

func TestProfileCalibrationShape(t *testing.T) {
	byLabel := map[string]scenario.Peer{}
	for _, p := range scenario.Table1().Synthesize(0) {
		byLabel[p.Label] = p
	}
	// Figure 2 ordering: SC7 > SC1 > SC5 > SC3 > SC6 > the quick three.
	wake := func(l string) time.Duration { return byLabel[l].Profile.WakeLag }
	if !(wake("SC7") > wake("SC1") && wake("SC1") > wake("SC5") &&
		wake("SC5") > wake("SC3") && wake("SC3") > wake("SC6")) {
		t.Fatal("wake-lag ordering does not match Figure 2")
	}
	for _, quick := range []string{"SC2", "SC4", "SC8"} {
		if wake(quick) != 0 {
			t.Fatalf("%s has wake lag %v, want 0", quick, wake(quick))
		}
	}
	// Figures 3/4: SC7 has the slowest link and CPU.
	for label, p := range byLabel {
		if label == "SC7" {
			continue
		}
		if p.Profile.Bandwidth <= byLabel["SC7"].Profile.Bandwidth {
			t.Fatalf("%s bandwidth %v not above SC7's", label, p.Profile.Bandwidth)
		}
		if p.Profile.CPUScore <= byLabel["SC7"].Profile.CPUScore {
			t.Fatalf("%s CPU %v not above SC7's", label, p.Profile.CPUScore)
		}
	}
	// Figure 5 needs degradation and failures enabled everywhere.
	for label, p := range byLabel {
		if p.Profile.DegradeRefBytes <= 0 || p.Profile.MTBF <= 0 {
			t.Fatalf("%s missing degradation/MTBF calibration", label)
		}
	}
}

func TestControlProfileIsWellProvisioned(t *testing.T) {
	cp := scenario.ControlProfile()
	for _, p := range scenario.Table1().Synthesize(0) {
		if cp.Bandwidth <= p.Profile.Bandwidth {
			t.Fatalf("control bandwidth %v not above %s", cp.Bandwidth, p.Label)
		}
	}
	if cp.WakeLag != 0 {
		t.Fatal("control node must not have wake lag")
	}
}
