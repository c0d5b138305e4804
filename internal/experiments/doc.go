// Package experiments regenerates every table and figure of the paper's
// evaluation (§4) on a simulated slice, and runs flow workloads — including
// churn-realistic ones — on the same harness.
//
// Each experiment deploys a scenario (by default the calibrated Table 1
// world: control node + SC1..SC8), starts the JXTA-Overlay broker and
// SimpleClients, and drives the same workloads the paper describes:
// petitions, 50 Mb and 100 Mb transfers at different granularities,
// selection-model-driven transfers, and transmission+execution runs.
// Results come back as metrics.Figure / metrics.Table values whose shape
// tests compare against the paper's qualitative findings. Synthetic
// scenarios (uniform:N, heterogeneous:N, zipf:N, churn:N) run the identical
// harness on slices of arbitrary size, and RunWorkload executes a
// (scenario, workload, repetition) grid whose per-flow records land in
// machine-readable reports.
//
// # Ownership rules
//
// The cell is the unit of everything: one (scenario, peer|workload,
// repetition) measurement with its own freshly deployed slice and its own
// virtual-time scheduler. Cells never share state — not a network, not a
// broker, not a statistics registry — which is what lets runCells fan them
// out across a worker pool. A cell's only inputs are its Config copy and
// its derived seed, so figure, workload and sweep output is bit-identical
// for a given seed at any Workers or Shards value, including 1. Two seed
// layouts exist, both SplitMix64 folds: figure batches derive from (root
// seed, figure tag, linear cell index) — the historical layout every
// committed figure value depends on — while generic sweep cells derive
// from (root seed, full axis coordinates), making a cell's world invariant
// to axis ordering and to whatever else shares the grid (see DESIGN.md
// "Sweep ownership"). Code inside a cell must draw randomness only from
// the cell's seed (via the scenario's and workload's pure generators) and
// from its own slice's deterministic scheduler — never from the wall
// clock, package-level state, or another cell.
//
// There is one workload cell (workloadCell): RunWorkload, every sweep cell
// and every marginal figure run through it. It reads two independent
// choices off its inputs — membership (static participants, or the
// scenario's churn schedule executed by workload.StartDynamics) and engine
// (workload.Run: the piece engine for a dissemination workload, the
// single-round executor otherwise) — and owns what surrounds them: the
// slice, the per-cell warning capture, and the stale/lagged audit that
// compares the broker's selections against the pure schedule. Figures are
// data: experiments.Figures is the registry, and the marginal figures are
// rows of one table (figures.go).
package experiments
