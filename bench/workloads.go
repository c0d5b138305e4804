package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"peerlab/internal/experiments"
	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// workloadSpec names one benchmark workload as data: generator names and
// sizes, so that quick mode can divide the sizes and a test can check the
// flow count without running anything. A spec with Sweep set runs
// experiments.RunSweep; every other spec runs experiments.RunWorkload.
type workloadSpec struct {
	Name string
	// Why is the one line BENCHMARK.json and the README carry: which layers
	// the workload stresses and which optimisation it is the counter-example
	// for.
	Why string

	Scenario string // generator name (uniform, heterogeneous, churn, faults, zipf)
	Peers    int
	Traffic  string // workload generator name; "" = the controller-fanout default
	Flows    int    // the traffic generator's N
	Reps     int    // cells per run, each its own world

	Sweep     string // sweep spec without its rep axis
	SweepReps int

	Shards     int
	CacheLimit int
	Workers    int

	// Static workloads have fixed membership and a reliable control plane:
	// a failed flow there is a harness bug, not a measurement.
	Static bool
	// Staged workloads are static single-round cells, which bench/ can
	// replay stage by stage through exported calls (NewEnv → RunPeers →
	// workload.Execute). Churn, fault, dissemination and sweep cells live
	// behind unexported functions.
	Staged bool
}

// quickDivisor is how far -quick shrinks every size.
const quickDivisor = 4

// The sizes are a quarter of the points BenchmarkScale commits
// (swarm-16384 and its siblings) so that one run takes about two seconds
// and five or more fit in a measuring window: on this class of box the
// median of six 2 s runs repeats within 3 %, one 12 s run within 6–9 %.
var workloads = []workloadSpec{
	{
		Name:     "fanout-4096",
		Why:      "serial two-RPC boot wave plus one small transfer per peer: vtime dispatch, timers, pipe and per-peer memory dominate; core is idle",
		Scenario: "uniform", Peers: 4096, Reps: 1,
		Shards: 8, CacheLimit: 4096, Workers: 1, Static: true, Staged: true,
	},
	{
		Name:     "swarm-4096",
		Why:      "256 selections over a static 4096-candidate directory: the selection read path (core rank, stats snapshots); a pipe or dispatcher change must not move it",
		Scenario: "heterogeneous", Peers: 4096, Traffic: "swarm", Flows: 256, Reps: 1,
		Shards: 8, CacheLimit: 4096, Workers: 1, Static: true, Staged: true,
	},
	{
		Name:     "churn-1024",
		Why:      "the same selection service while leases expire, peers rejoin and stats mutate: writes beside reads, where an index that speeds swarm-4096 pays its invalidation",
		Scenario: "churn", Peers: 1024, Traffic: "swarm", Flows: 256, Reps: 1,
		Shards: 4, CacheLimit: 4096, Workers: 1,
	},
	{
		Name:     "faults-128x4",
		Why:      "resilient call path under broker blackouts, partitions and loss: every renewal re-discovers the directory, so wire codec and garbage dominate; four worlds per run average the fault plans",
		Scenario: "faults", Peers: 128, Traffic: "swarm", Flows: 96, Reps: 4,
		Shards: 4, Workers: 1,
	},
	{
		Name:     "dissem-512",
		Why:      "piece-level data plane, no selection, light boot: many short concurrent transfers through workload, vtime and pipe instead of one boot wave",
		Scenario: "zipf", Peers: 512, Traffic: "disseminate", Flows: 512, Reps: 1,
		Shards: 2, Workers: 1, Static: true,
	},
	{
		Name: "sweep-grid",
		Why:  "90 small cells on two workers: per-cell deploy, boot and teardown, pool reuse and the parallel runner; a per-peer gain that adds per-cell set-up loses here",
		Sweep: "scenario=table1,heterogeneous:64,zipf:64,churn:64,faults:32;workload=swarm:32;" +
			"model=economic,same-priority,quick-peer;granularity=1,4,16",
		SweepReps: 2, Workers: 2,
	},
}

func findWorkload(name string) (workloadSpec, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workloadSpec{}, false
}

// plan is a spec resolved for one seed: the generated configuration the
// program under test receives, and the number of flows (or sweep cells) its
// report must hold.
type plan struct {
	spec  workloadSpec
	cfg   experiments.Config
	sweep *experiments.Sweep
	units int
}

// resolve parses the spec's generators into an experiments.Config. Quick
// mode divides every size by quickDivisor (the sweep drops to one rep) and
// keeps every name, so its output has the shape of a full run and none of
// its meaning.
func (w workloadSpec) resolve(seed int64, quick bool) (plan, error) {
	div := 1
	if quick {
		div = quickDivisor
	}
	p := plan{spec: w, cfg: experiments.Config{
		Seed: seed, Reps: 1, Workers: w.Workers, Shards: w.Shards, CacheLimit: w.CacheLimit,
	}}
	if w.Sweep != "" {
		reps := max(1, w.SweepReps/div)
		sw, err := experiments.ParseSweep(fmt.Sprintf("%s;rep=%d", w.Sweep, reps))
		if err != nil {
			return plan{}, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		p.sweep = &sw
		p.units = sweepCells(sw)
		return p, nil
	}
	sc, err := scenario.Parse(fmt.Sprintf("%s:%d", w.Scenario, w.Peers/div))
	if err != nil {
		return plan{}, fmt.Errorf("workload %s: %w", w.Name, err)
	}
	p.cfg.Scenario = sc
	p.cfg.Reps = w.Reps
	tr := workload.ControllerFanout()
	if w.Traffic != "" {
		if tr, err = workload.Parse(fmt.Sprintf("%s:%d", w.Traffic, w.Flows/div)); err != nil {
			return plan{}, fmt.Errorf("workload %s: %w", w.Name, err)
		}
		p.cfg.Workload = tr
	}
	p.units = w.Reps * len(tr.Flows(sc.Labels, seed))
	return p, nil
}

// sweepCells is the size of a sweep's grid: the product of its axes, an
// unset axis counting one.
func sweepCells(sw experiments.Sweep) int {
	n := max(1, sw.Reps)
	for _, axis := range []int{
		len(sw.Scenarios), len(sw.Workloads), len(sw.Models), len(sw.Granularities), len(sw.Sizes),
		len(sw.Picks), len(sw.Chokes), len(sw.ChurnRates), len(sw.FaultRates),
	} {
		n *= max(1, axis)
	}
	return n
}

// outcome is what one call into the program under test produced, reduced to
// what the checks need.
type outcome struct {
	Units       int    `json:"units"`        // flows, or sweep cells
	Flows       int    `json:"flows"`        // simulated flows attempted
	FailedFlows int    `json:"failed_flows"` // of those, recorded failed
	Stale       int    `json:"selections_stale"`
	Digest      string `json:"digest"` // SHA-256 of the report's JSON
}

// call makes the one measured call — RunWorkload or RunSweep — and returns
// the report for digesting. Nothing but the call is inside it.
func (p plan) call() (any, error) {
	if p.sweep != nil {
		return experiments.RunSweep(p.cfg, *p.sweep)
	}
	return experiments.RunWorkload(p.cfg)
}

// digest reduces a report to an outcome. It runs after the measured
// interval: marshalling is not part of any metric.
func digest(report any) (outcome, error) {
	var o outcome
	switch r := report.(type) {
	case *experiments.WorkloadReport:
		o.Units = len(r.Flows)
		o.Flows = len(r.Flows)
		o.FailedFlows = r.Summary.FailedFlows
		o.Stale = r.Summary.SelectionsStale
	case *experiments.SweepReport:
		o.Units = len(r.Cells)
		for _, c := range r.Cells {
			o.Flows += c.Summary.Flows
			o.FailedFlows += c.Summary.FailedFlows
			o.Stale += c.Summary.SelectionsStale
		}
	default:
		return o, fmt.Errorf("unexpected report type %T", report)
	}
	b, err := json.Marshal(report)
	if err != nil {
		return o, fmt.Errorf("marshal report: %w", err)
	}
	sum := sha256.Sum256(b)
	o.Digest = hex.EncodeToString(sum[:])
	return o, nil
}

// check compares an outcome with what the spec promises and returns the
// violations, empty when the run is correct.
func (p plan) check(o outcome) []string {
	var bad []string
	if o.Units != p.units {
		bad = append(bad, fmt.Sprintf("%s: report holds %d flows/cells, want %d", p.spec.Name, o.Units, p.units))
	}
	if p.spec.Static && o.FailedFlows != 0 {
		bad = append(bad, fmt.Sprintf("%s: %d flows failed on a static workload", p.spec.Name, o.FailedFlows))
	}
	return bad
}
