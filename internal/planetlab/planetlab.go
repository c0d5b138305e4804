// Package planetlab models the paper's experimental infrastructure: the
// PlanetLab slice of Table 1 and the eight SimpleClient peers (SC1..SC8)
// whose heterogeneity drives every figure.
//
// PlanetLab itself is unavailable; per DESIGN.md each node carries a
// simnet.Profile calibrated against the paper's published measurements:
// Figure 2's petition times fix the wake lags, Figures 3–5 fix bandwidths
// and the failure/degradation model, Figure 7 fixes CPU scores. Absolute
// agreement is not claimed — the calibration preserves who is slow, who is
// fast, and by roughly what factor.
package planetlab

import (
	"fmt"
	"time"

	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
)

// The calibrated Table-1 world is the scenario layer's default; registering
// it here lets any importer of the experiment stack scenario.Parse("table1").
func init() {
	scenario.Register("table1", Scenario)
}

// NodeInfo is one catalog entry (Table 1 of the paper).
type NodeInfo struct {
	Hostname string
	Country  string
	// SC is "SC1".."SC8" for the SimpleClient peers used in the
	// experiments, empty otherwise.
	SC string
}

// Catalog returns the 25 PlanetLab hosts added to the slice (Table 1),
// in the paper's order.
func Catalog() []NodeInfo {
	return []NodeInfo{
		{Hostname: "ait05.us.es", Country: "ES", SC: "SC1"},
		{Hostname: "planet01.hhi.fraunhofer.de", Country: "DE"},
		{Hostname: "planet1.cs.huji.ac.il", Country: "IL"},
		{Hostname: "planet1.manchester.ac.uk", Country: "UK"},
		{Hostname: "system18.ncl-ext.net", Country: "UK"},
		{Hostname: "planetlab1.net-research.org.uk", Country: "UK"},
		{Hostname: "planetlab01.cs.tcd.ie", Country: "IE", SC: "SC3"},
		{Hostname: "planet2.scs.stanford.edu", Country: "US"},
		{Hostname: "planetlab01.ethz.ch", Country: "CH"},
		{Hostname: "planetlab1.ssvl.kth.se", Country: "SE", SC: "SC8"},
		{Hostname: "planetlab1.esi.ucm.es", Country: "ES"},
		{Hostname: "planetlab1.csg.unizh.ch", Country: "CH", SC: "SC4"},
		{Hostname: "planetlab1.poly.edu", Country: "US"},
		{Hostname: "planetlab1.cslab.ece.ntua.gr", Country: "GR"},
		{Hostname: "planetlab2.ls.fi.upm.es", Country: "ES"},
		{Hostname: "planetlab1.eecs.iu-bremen.de", Country: "DE"},
		{Hostname: "planetlab2.upc.es", Country: "ES"},
		{Hostname: "planetlab1.hiit.fi", Country: "FI", SC: "SC2"},
		{Hostname: "lsirextpc01.epfl.ch", Country: "CH", SC: "SC6"},
		{Hostname: "planetlab5.upc.es", Country: "ES"},
		{Hostname: "ricepl1.cs.rice.edu", Country: "US"},
		{Hostname: "planetlab1.itwm.fhg.de", Country: "DE", SC: "SC7"},
		{Hostname: "planet2.seattle.intel-research.net", Country: "US"},
		{Hostname: "planetlab1.informatik.unierlangen.de", Country: "DE"},
		{Hostname: "edi.tkn.tu-berlin.de", Country: "DE", SC: "SC5"},
	}
}

// SCPeer couples a SimpleClient label with its host and calibrated profile.
type SCPeer struct {
	Label    string // "SC1".."SC8"
	Hostname string
	Profile  simnet.Profile
}

// SCPeers returns the paper's eight SimpleClient peers with profiles
// calibrated to Figures 2–5 and 7. See package doc for the method.
func SCPeers() []SCPeer {
	mk := func(lat time.Duration, wake time.Duration, bw float64, cpu float64, mtbf time.Duration) simnet.Profile {
		return simnet.Profile{
			LatencyOneWay:   lat,
			Jitter:          8 * time.Millisecond,
			Bandwidth:       bw,
			MTBF:            mtbf,
			CPUScore:        cpu,
			WakeLag:         wake,
			WakeLagSpread:   0.15,
			EngagedWindow:   30 * time.Second,
			DegradeRefBytes: 50e6, // 50 Mb reference: whole-message buffering
			DegradeExp:      1.5,
		}
	}
	return []SCPeer{
		// Figure 2 petition targets: 12.86, 0.04, 2.79, 0.07, 5.19, 0.35,
		// 27.13, 0.06 seconds.
		{"SC1", "ait05.us.es", mk(25*time.Millisecond, 13400*time.Millisecond, 1.1e6, 0.90, 120*time.Minute)},
		{"SC2", "planetlab1.hiit.fi", mk(15*time.Millisecond, 0, 1.6e6, 1.20, 180*time.Minute)},
		{"SC3", "planetlab01.cs.tcd.ie", mk(25*time.Millisecond, 2900*time.Millisecond, 0.9e6, 0.80, 120*time.Minute)},
		{"SC4", "planetlab1.csg.unizh.ch", mk(32*time.Millisecond, 0, 1.4e6, 1.10, 180*time.Minute)},
		{"SC5", "edi.tkn.tu-berlin.de", mk(20*time.Millisecond, 5400*time.Millisecond, 1.0e6, 0.85, 120*time.Minute)},
		{"SC6", "lsirextpc01.epfl.ch", mk(25*time.Millisecond, 300*time.Millisecond, 1.3e6, 1.00, 150*time.Minute)},
		{"SC7", "planetlab1.itwm.fhg.de", mk(45*time.Millisecond, 28200*time.Millisecond, 0.4e6, 0.45, 35*time.Minute)},
		{"SC8", "planetlab1.ssvl.kth.se", mk(27*time.Millisecond, 0, 1.5e6, 1.15, 180*time.Minute)},
	}
}

// SCByLabel returns the SC peer with the given label.
func SCByLabel(label string) (SCPeer, error) {
	for _, p := range SCPeers() {
		if p.Label == label {
			return p, nil
		}
	}
	return SCPeer{}, fmt.Errorf("planetlab: no SC peer %q", label)
}

// ControlProfile models the nozomi.lsi.upc.edu cluster's main node — the
// broker-side machine: well provisioned, lightly loaded.
func ControlProfile() simnet.Profile {
	return simnet.Profile{
		LatencyOneWay: 5 * time.Millisecond,
		Jitter:        time.Millisecond,
		Bandwidth:     50e6,
		CPUScore:      2.0,
	}
}

// Scenario returns the paper's calibrated Table-1 world as a scenario: the
// nozomi control node plus the eight SC peers, with the exact profiles of
// SCPeers (the catalog is seed-independent — the calibration IS the data).
// Figure 6's warm-up hints match the paper's session history: blemished
// records on the two fastest links (SC2, SC8) and a stale user memory of
// mid-tier peers (SC3, SC6, SC5).
func Scenario() scenario.Scenario {
	peers := make([]scenario.Peer, 0, 8)
	labels := make([]string, 0, 8)
	for _, p := range SCPeers() {
		peers = append(peers, scenario.Peer{Label: p.Label, Hostname: p.Hostname, Profile: p.Profile})
		labels = append(labels, p.Label)
	}
	return scenario.Scenario{
		Name:       "table1",
		Control:    scenario.Peer{Label: "nozomi", Hostname: "nozomi.lsi.upc.edu", Profile: ControlProfile()},
		Labels:     labels,
		Entry:      func(_ int64, i int) scenario.Peer { return peers[i] },
		Remembered: []string{"SC3", "SC6", "SC5"},
		Blemished:  []string{"SC2", "SC8"},
	}
}
