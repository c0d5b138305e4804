// The paper's world: the PlanetLab slice of Table 1, its nozomi control
// node and the eight SimpleClient peers (SC1..SC8) whose heterogeneity
// drives every figure.
//
// PlanetLab itself is unavailable; per DESIGN.md each SC peer carries a
// simnet.Profile calibrated against the paper's published measurements:
// Figure 2's petition times fix the wake lags, Figures 3–5 fix bandwidths
// and the failure/degradation model, Figure 7 fixes CPU scores. Absolute
// agreement is not claimed — the calibration preserves who is slow, who is
// fast, and by roughly what factor.

package scenario

import (
	"time"

	"peerlab/internal/simnet"
)

// Host is one row of Table 1.
type Host struct {
	Hostname string
	Country  string
	// SC is "SC1".."SC8" for the SimpleClient peers used in the
	// experiments, empty otherwise.
	SC string
}

// Table1Hosts returns the 25 PlanetLab hosts added to the slice (Table 1),
// in the paper's order.
func Table1Hosts() []Host {
	return []Host{
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

// Table1 returns the paper's calibrated world: the nozomi control node plus
// the eight SC peers, each on its Table 1 host with the substrate's base
// profile and its own calibrated latency, wake lag, bandwidth, CPU score
// and MTBF. The catalog is seed-independent — the calibration is the data.
// Figure 6's warm-up hints match the paper's session history: blemished
// records on the two fastest links (SC2, SC8) and a stale user memory of
// mid-tier peers (SC3, SC6, SC5).
func Table1() Scenario {
	hostOf := make(map[string]string, 8)
	for _, h := range Table1Hosts() {
		if h.SC != "" {
			hostOf[h.SC] = h.Hostname
		}
	}
	sc := func(label string, lat, wake time.Duration, bw, cpu float64, mtbf time.Duration) Peer {
		p := baseProfile()
		p.LatencyOneWay, p.WakeLag, p.Bandwidth, p.CPUScore, p.MTBF = lat, wake, bw, cpu, mtbf
		return Peer{Label: label, Hostname: hostOf[label], Profile: p}
	}
	// Figure 2 petition targets: 12.86, 0.04, 2.79, 0.07, 5.19, 0.35, 27.13,
	// 0.06 seconds.
	peers := []Peer{
		sc("SC1", 25*time.Millisecond, 13400*time.Millisecond, 1.1e6, 0.90, 120*time.Minute),
		sc("SC2", 15*time.Millisecond, 0, 1.6e6, 1.20, 180*time.Minute),
		sc("SC3", 25*time.Millisecond, 2900*time.Millisecond, 0.9e6, 0.80, 120*time.Minute),
		sc("SC4", 32*time.Millisecond, 0, 1.4e6, 1.10, 180*time.Minute),
		sc("SC5", 20*time.Millisecond, 5400*time.Millisecond, 1.0e6, 0.85, 120*time.Minute),
		sc("SC6", 25*time.Millisecond, 300*time.Millisecond, 1.3e6, 1.00, 150*time.Minute),
		sc("SC7", 45*time.Millisecond, 28200*time.Millisecond, 0.4e6, 0.45, 35*time.Minute),
		sc("SC8", 27*time.Millisecond, 0, 1.5e6, 1.15, 180*time.Minute),
	}
	labels := make([]string, len(peers))
	for i, p := range peers {
		labels[i] = p.Label
	}
	return Scenario{
		Name:       "table1",
		Control:    Peer{Label: "nozomi", Hostname: "nozomi.lsi.upc.edu", Profile: ControlProfile()},
		Labels:     labels,
		Entry:      func(_ int64, i int) Peer { return peers[i] },
		Remembered: []string{"SC3", "SC6", "SC5"},
		Blemished:  []string{"SC2", "SC8"},
	}
}
