package scenario_test

import (
	"fmt"
	"testing"

	"peerlab/internal/scenario"
)

// TestTable1WorldPinned pins the paper's world as Parse("table1") returns
// it: the nozomi control node, the figure axis, Figure 6's hints and every
// calibrated SC profile, field by field, plus the synthetic generators'
// control node, which shares nozomi's figures. Every figure measures this
// world, so a moved field here moves every figure.
func TestTable1WorldPinned(t *testing.T) {
	sc, err := scenario.Parse("table1")
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := scenario.Parse("uniform:4")
	if err != nil {
		t.Fatal(err)
	}
	got := []string{
		fmt.Sprintf("%q %q %v %v %t %t", sc.Name, sc.Workload, sc.Horizon, sc.AdvTTL, sc.Churn == nil, sc.Faults == nil),
		fmt.Sprintf("%+v", sc.Control),
		fmt.Sprintf("%+v", sc.Labels),
		fmt.Sprintf("%+v", sc.Remembered),
		fmt.Sprintf("%+v", sc.Blemished),
	}
	for _, p := range sc.Synthesize(0) {
		got = append(got, fmt.Sprintf("%+v", p))
	}
	got = append(got, fmt.Sprintf("%+v", uniform.Control))
	want := []string{
		`"table1" "" 0s 0s true true`,
		`{Label:nozomi Hostname:nozomi.lsi.upc.edu Site: Profile:{LatencyOneWay:5ms Jitter:1ms Bandwidth:5e+07 MTBF:0s CPUScore:2 WakeLag:0s WakeLagSpread:0 EngagedWindow:0s DegradeRefBytes:0 DegradeExp:0}}`,
		`[SC1 SC2 SC3 SC4 SC5 SC6 SC7 SC8]`,
		`[SC3 SC6 SC5]`,
		`[SC2 SC8]`,
		`{Label:SC1 Hostname:ait05.us.es Site: Profile:{LatencyOneWay:25ms Jitter:8ms Bandwidth:1.1e+06 MTBF:2h0m0s CPUScore:0.9 WakeLag:13.4s WakeLagSpread:0.15 EngagedWindow:30s DegradeRefBytes:5e+07 DegradeExp:1.5}}`,
		`{Label:SC2 Hostname:planetlab1.hiit.fi Site: Profile:{LatencyOneWay:15ms Jitter:8ms Bandwidth:1.6e+06 MTBF:3h0m0s CPUScore:1.2 WakeLag:0s WakeLagSpread:0.15 EngagedWindow:30s DegradeRefBytes:5e+07 DegradeExp:1.5}}`,
		`{Label:SC3 Hostname:planetlab01.cs.tcd.ie Site: Profile:{LatencyOneWay:25ms Jitter:8ms Bandwidth:900000 MTBF:2h0m0s CPUScore:0.8 WakeLag:2.9s WakeLagSpread:0.15 EngagedWindow:30s DegradeRefBytes:5e+07 DegradeExp:1.5}}`,
		`{Label:SC4 Hostname:planetlab1.csg.unizh.ch Site: Profile:{LatencyOneWay:32ms Jitter:8ms Bandwidth:1.4e+06 MTBF:3h0m0s CPUScore:1.1 WakeLag:0s WakeLagSpread:0.15 EngagedWindow:30s DegradeRefBytes:5e+07 DegradeExp:1.5}}`,
		`{Label:SC5 Hostname:edi.tkn.tu-berlin.de Site: Profile:{LatencyOneWay:20ms Jitter:8ms Bandwidth:1e+06 MTBF:2h0m0s CPUScore:0.85 WakeLag:5.4s WakeLagSpread:0.15 EngagedWindow:30s DegradeRefBytes:5e+07 DegradeExp:1.5}}`,
		`{Label:SC6 Hostname:lsirextpc01.epfl.ch Site: Profile:{LatencyOneWay:25ms Jitter:8ms Bandwidth:1.3e+06 MTBF:2h30m0s CPUScore:1 WakeLag:300ms WakeLagSpread:0.15 EngagedWindow:30s DegradeRefBytes:5e+07 DegradeExp:1.5}}`,
		`{Label:SC7 Hostname:planetlab1.itwm.fhg.de Site: Profile:{LatencyOneWay:45ms Jitter:8ms Bandwidth:400000 MTBF:35m0s CPUScore:0.45 WakeLag:28.2s WakeLagSpread:0.15 EngagedWindow:30s DegradeRefBytes:5e+07 DegradeExp:1.5}}`,
		`{Label:SC8 Hostname:planetlab1.ssvl.kth.se Site: Profile:{LatencyOneWay:27ms Jitter:8ms Bandwidth:1.5e+06 MTBF:3h0m0s CPUScore:1.15 WakeLag:0s WakeLagSpread:0.15 EngagedWindow:30s DegradeRefBytes:5e+07 DegradeExp:1.5}}`,
		`{Label:control Hostname:control.slice.peerlab Site: Profile:{LatencyOneWay:5ms Jitter:1ms Bandwidth:5e+07 MTBF:0s CPUScore:2 WakeLag:0s WakeLagSpread:0 EngagedWindow:0s DegradeRefBytes:0 DegradeExp:0}}`,
	}
	if len(got) != len(want) {
		t.Fatalf("table1 world has %d pinned lines, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}
