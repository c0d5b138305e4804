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
// scenarios run the identical harness on slices of arbitrary size, and
// RunWorkload and RunSweep execute workload grids whose per-flow records
// land in machine-readable reports.
//
// The cell is the unit of everything: one (scenario, peer|workload,
// repetition) measurement with its own freshly deployed world, virtual-time
// scheduler and derived seed. Cells share no state, so output is
// bit-identical for a given seed at any Workers or Shards value. DESIGN.md
// "Experiment ownership" states the rules that keep it so: one world
// builder (NewEnv, Env.RunPeers), two seed layouts, figures as rows of two
// tables behind RunFigures, and one workload cell (workloadCell).
package experiments
