// Package scenario lifts the experiment world into a first-class layer: a
// Scenario describes a slice — the control node, the peers, how each peer's
// simnet.Profile is drawn, and (for churning scenarios) when each peer
// joins and leaves — and synthesizes all of it deterministically from a
// seed.
//
// The paper's evaluation stops at 8 SimpleClient peers on the Table 1
// slice; the calibrated "table1" scenario (registered by internal/planetlab)
// reproduces exactly that world, while the synthetic generators scale the
// same experiment harness to slices of hundreds of peers per machine:
//
//   - uniform:N — homogeneous, well-behaved peers
//   - heterogeneous:N — the PlanetLab three-class mixture (healthy, loaded,
//     pathological)
//   - zipf:N — bandwidths on a Zipf curve: a fat head, a long thin tail
//   - churn:N — the heterogeneous mixture with live membership: staggered
//     joins, abrupt leaves, rejoins, and correlated per-site outages, plus
//     the short broker lease (AdvTTL) that lets the directory track
//     membership
//
// # Ownership rules
//
// "Pure seed-derived" is the package's contract: Entry and Churn must be
// pure functions of the seed (Entry of the seed and the entry's index) — no
// clocks, no shared state, no environment. The parallel experiment runner deploys one fresh slice per
// cell from the cell's derived seed and relies on identical output at any
// worker count; per-peer draws come from SplitMix64-decorrelated streams
// (Mix64), so catalogs and schedules are also independent of evaluation
// order. Anything time- or order-dependent belongs to executors
// (internal/workload's Conductor, internal/experiments' cells), never to a
// Scenario.
//
// The registry (Register/Parse) is how calibrated data reaches this
// package without a dependency cycle: internal/planetlab consumes the
// scenario layer for deployment and contributes "table1" to it at init.
// Constructors registered there must return self-contained Scenario values
// — Parse callers own them from then on.
package scenario
