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
// repetition) measurement with its own freshly deployed world and its own
// virtual-time scheduler. Cells never share state — not a network, not a
// broker, not a statistics registry — which is what lets runCells fan them
// out across a worker pool. A cell's only inputs are its Config copy and
// its derived seed, so figure, workload and sweep output is bit-identical
// for a given seed at any Workers or Shards value, including 1. Code inside
// a cell takes randomness and time only from its seed and its slice's
// scheduler. DESIGN.md "Experiment ownership" states the three rules in full:
//
// One world builder. NewEnv/NewEnvFor and Env.RunPeers are the only place a
// broker or a client is built on a simulated slice; cells, the public facade
// and the repository benchmark's staged replay all get their world there.
// What the world runs — lease TTL, call policy, static clients or the
// scenario's dynamics — is read off its scenario.
//
// Two seed layouts, both SplitMix64 folds. Figure batches and RunWorkload's
// repetitions derive from (root seed, tag, linear cell index) — the layout
// every committed figure value and workload digest depends on — while sweep
// cells derive from (root seed, full axis coordinates), making a cell's
// world invariant to axis ordering and to whatever else shares the grid.
//
// Figures are data. Every figure is a row of one of two tables in
// figures.go — the paper's per-peer figures and the sweep-marginal figures —
// experiments.Figures is derived from them, and RunFigures is the one entry
// point behind FigureSuite and the CLI.
//
// There is one workload cell (workloadCell): RunWorkload, every sweep cell
// and every marginal figure run through it. It reads two independent
// choices off its inputs — membership (static participants, or the
// scenario's dynamics, started by Env.RunPeers) and engine (workload.Run:
// the piece engine for a dissemination workload, the single-round executor
// otherwise) — and owns what surrounds them: the per-cell warning capture
// and the stale/lagged audit that compares the broker's selections against
// the pure schedule.
package experiments
