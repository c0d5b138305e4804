// Package scenario lifts the experiment world into a first-class layer: a
// Scenario describes a slice — the control node, the peers, how each peer's
// simnet.Profile is drawn, and (for churning scenarios) when each peer
// joins and leaves — and synthesizes all of it deterministically from a
// seed.
//
// The paper's evaluation stops at 8 SimpleClient peers on the Table 1
// slice. Parse reads one grammar: "table1" is exactly that world, and the
// synthetic generators scale the same experiment harness to slices of
// hundreds of peers per machine:
//
//   - table1 — the nozomi control node and SC1..SC8, calibrated against the
//     paper's figures (table1.go)
//   - uniform:N — homogeneous, well-behaved peers
//   - heterogeneous:N — the PlanetLab three-class mixture (healthy, loaded,
//     pathological)
//   - zipf:N — bandwidths on a Zipf curve: a fat head, a long thin tail
//   - churn:N — the heterogeneous mixture with live membership: staggered
//     joins, abrupt leaves, rejoins, and correlated per-site outages, plus
//     the short broker lease (AdvTTL) that lets the directory track
//     membership
//   - faults:N — the heterogeneous mixture, static, under a control-plane
//     fault plan: broker blackouts, site partitions, loss bursts
//
// Entry and Churn are pure functions of the seed (Entry of the seed and the
// entry's index): the parallel runner deploys one fresh slice per cell and
// relies on identical output at any worker count (DESIGN.md "Scenario
// layer").
package scenario
