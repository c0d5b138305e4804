package main

import (
	"fmt"
	"runtime"
	"time"

	"peerlab/internal/experiments"
	"peerlab/internal/overlay"
	"peerlab/internal/vtime"
	"peerlab/internal/workload"
)

// stagedResult is a static cell replayed stage by stage: one span per stage
// and the exact counts read at the same boundaries.
type stagedResult struct {
	Spans  []span             `json:"spans"`
	Counts map[string]float64 `json:"counts"`
}

// Names of the staged spans; each is also a per-layer metric in seconds.
const (
	spanDeploy   = "scenario.deploy_s"
	spanBoot     = "overlay.boot_s"
	spanExecute  = "workload.execute_s"
	spanTeardown = "experiments.teardown_s"
)

// stagedIdleGap is experiments.Config's default IdleGap, which NewEnv does
// not apply for us.
const stagedIdleGap = 10 * time.Minute

// stagedRun replays the cell RunWorkload would run for a static single-round
// workload, through the exported calls BenchmarkScale/boot-65536 already
// uses, with a span around each stage: deploy the slice and broker, boot
// every client, execute the flows, drain to quiescence. The cell's seed is
// the benchmark's seed itself (RunWorkload derives another), so the world is
// a sibling of the measured run's, not its twin; the counts are exact
// functions of the seed all the same.
func stagedRun(p plan) (stagedResult, error) {
	if !p.spec.Staged {
		return stagedResult{}, fmt.Errorf("workload %s cannot be staged from outside", p.spec.Name)
	}
	name := p.spec.Name
	tr := &tracer{}
	traffic := p.cfg.Workload
	if traffic.IsZero() {
		traffic = workload.ControllerFanout()
	}
	flows := traffic.Flows(p.cfg.Scenario.Labels, p.cfg.Seed)
	counts := make(map[string]float64)

	deploy := tr.start(0, spanDeploy, name)
	env, err := experiments.NewEnv(p.cfg)
	tr.end(deploy)
	if err != nil {
		return stagedResult{}, err
	}
	boot := tr.start(0, spanBoot, name)
	var teardown int
	err = env.RunPeers(nil, func(ctl *overlay.Client, clients map[string]*overlay.Client) error {
		tr.end(boot)
		var ms runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&ms)
		counts["overlay.boot_heap_bytes_per_peer"] = float64(ms.HeapAlloc) / float64(len(clients))

		execute := tr.start(0, spanExecute, name)
		_, err := workload.Execute(workload.Env{
			Host:         env.Slice.Control,
			Control:      ctl,
			Clients:      clients,
			HostOf:       env.Host,
			LabelOf:      env.Label,
			ExcludeSinks: []string{env.Slice.Control.Name()},
			IdleGap:      stagedIdleGap,
		}, flows, p.cfg.Seed)
		tr.end(execute)
		teardown = tr.start(0, spanTeardown, name)
		return err
	})
	if err != nil {
		return stagedResult{}, err
	}
	tr.end(teardown)

	sent, _, dropped := env.Slice.Net.Stats()
	spawned, reused := vtime.SharedPool().Stats()
	counts["simnet.msgs_sent"] = float64(sent)
	counts["simnet.msgs_dropped"] = float64(dropped)
	counts["vtime.virtual_s"] = env.Slice.Net.Scheduler().Elapsed().Seconds()
	counts["vtime.pool_spawned"] = float64(spawned)
	counts["vtime.pool_reused"] = float64(reused)
	counts["overlay.ctl_rpcs"] = float64(env.Broker.ControlRPCs())
	var hostNS int64
	for _, s := range tr.spans {
		hostNS += s.EndNS - s.StartNS
	}
	counts["simnet.host_us_per_msg"] = float64(hostNS) / 1e3 / float64(sent)
	return stagedResult{Spans: tr.spans, Counts: counts}, nil
}

// stagedMetrics declares every metric a staged run yields, spans first.
var stagedMetrics = []layerMetric{
	{Name: spanDeploy, Unit: "s"},
	{Name: spanBoot, Unit: "s"},
	{Name: spanExecute, Unit: "s"},
	{Name: spanTeardown, Unit: "s"},
	{Name: "simnet.msgs_sent", Unit: "count"},
	{Name: "simnet.msgs_dropped", Unit: "count"},
	{Name: "simnet.host_us_per_msg", Unit: "us"},
	{Name: "vtime.virtual_s", Unit: "s"},
	{Name: "vtime.pool_spawned", Unit: "count"},
	{Name: "vtime.pool_reused", Unit: "count", Higher: true},
	{Name: "overlay.ctl_rpcs", Unit: "count"},
	{Name: "overlay.boot_heap_bytes_per_peer", Unit: "B"},
}
