package experiments

import (
	"fmt"

	"peerlab/internal/core"
	"peerlab/internal/metrics"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/task"
	"peerlab/internal/transfer"
	"peerlab/internal/workload"
)

// Table1 reproduces the paper's Table 1: the nodes added to the PlanetLab
// slice.
func Table1() *metrics.Table {
	t := &metrics.Table{
		Title:   "Table 1 — Nodes added to the PlanetLab slice",
		Columns: []string{"hostname", "country", "role"},
	}
	for _, n := range scenario.Table1Hosts() {
		role := ""
		if n.SC != "" {
			role = n.SC + " (SimpleClient)"
		}
		t.AddRow(n.Hostname, n.Country, role)
	}
	return t
}

// The cells of the paper's figures (the rows of paperFigures, figures.go):
// each runs one (granularity, label, repetition) point in a world of its own
// and returns a short vector of measures.

// petitionCell is Figure 2's cell: the time one peer takes to receive the
// petition for a file transmission, after an idle gap (an engaged peer would
// not pay its wake-up lag, and the paper's peers were idle when petitioned).
func petitionCell(cfg Config, _ int, label string, rep int) ([]float64, error) {
	return envCell(cfg, []string{label}, func(env *Env, ctl *overlay.Client) ([]float64, error) {
		env.Slice.Control.Sleep(IdleGap)
		var m transfer.Metrics
		if err := ctl.Send(env.Host(label), transfer.NewVirtualFile("petition-probe", transfer.Mb, int64(rep)), 1, &m); err != nil {
			return nil, fmt.Errorf("fig2 %s rep %d: %w", label, rep, err)
		}
		return []float64{m.PetitionDelay().Seconds()}, nil
	})
}

// transferCell returns the cell of Figures 3–5: one transfer of size bytes
// in the group's parts to one peer, measured as {transmission minutes,
// last-Mb seconds}.
//
// A transmission the pipe abandons is relaunched (workload.SendRelaunched)
// and the completed one measured: whole-file fragility is Figure 5's
// finding, carried by the surviving attempt's stretched time (DESIGN.md
// "Scenario layer").
func transferCell(size int) func(cfg Config, parts int, label string, rep int) ([]float64, error) {
	return func(cfg Config, parts int, label string, rep int) ([]float64, error) {
		return envCell(cfg, []string{label}, func(env *Env, ctl *overlay.Client) ([]float64, error) {
			var m transfer.Metrics
			if err := workload.SendRelaunched(cfg.logf, env.Slice.Control.Sleep, IdleGap, ctl,
				env.Host(label), transfer.NewVirtualFile("payload", size, int64(rep)), parts,
				fmt.Sprintf("figure cell (control -> %s, rep %d)", label, rep), &m); err != nil {
				return nil, fmt.Errorf("transfer to %s rep %d: %w", label, rep, err)
			}
			return []float64{m.TransmissionTime().Minutes(), m.LastMbTime().Seconds()}, nil
		})
	}
}

// Fig6Models are the three selection models of Figure 6, in the paper's
// order.
var Fig6Models = []string{"economic", "same-priority", "quick-peer"}

// selectionCell is Figure 6's cell: one (parts, model) combination in its
// own freshly warmed-up environment, measured as the mean per-part
// transmission seconds of Reps transfers of a 1 Mb file to the peer the
// model selects.
//
// The environment is warmed up the way the paper's platform would be after
// a working session: the controller has transferred files to every peer
// (so the broker holds rate and petition-delay statistics), and earlier
// sessions left blemishes on the record of the two fastest peers (failed
// messages and a cancelled transfer). The economic model — which only
// plans completion time — still picks the fastest peer; the same-priority
// data evaluator weighs the blemishes equally with throughput and settles
// on a clean mid-tier peer; the user's quick-peer memory predates the
// current session entirely and points at a slower peer. That disagreement
// is the paper's point: the models embody different judgments.
func selectionCell(cfg Config, parts int, model string, _ int) ([]float64, error) {
	return envCell(cfg, nil, func(env *Env, ctl *overlay.Client) ([]float64, error) {
		// Warm-up: give the broker statistics about every peer.
		for _, label := range cfg.Scenario.Labels {
			for rep := 0; rep < 2; rep++ {
				if err := ctl.Send(env.Host(label),
					transfer.NewVirtualFile("warmup", transfer.Mb, int64(rep)), 2, new(transfer.Metrics)); err != nil {
					return nil, fmt.Errorf("fig6 warmup %s: %w", label, err)
				}
			}
		}
		// History from earlier sessions: the scenario's fast links carry
		// blemished records (the paper's loaded-sliver reality: fast links
		// on peers that drop messages under load).
		for _, label := range cfg.Scenario.Blemished {
			ps := env.Broker.Registry().Peer(env.Host(label))
			for i := 0; i < 4; i++ {
				ps.RecordMessage(false)
			}
			ps.RecordTransferOutcome(true) // one cancelled transfer
		}

		env.Slice.Control.Sleep(IdleGap)
		req := core.Request{Kind: core.KindFileTransfer, SizeBytes: transfer.Mb}
		var preferred []string
		if model == "quick-peer" {
			// The user's stale memory predates this session.
			preferred = rememberedHosts(env, cfg.Scenario)
		}
		peers, err := ctl.SelectPeers(model, req, 1, preferred)
		if err != nil {
			return nil, fmt.Errorf("fig6 select %s: %w", model, err)
		}
		if len(peers) == 0 {
			return nil, fmt.Errorf("fig6 select %s: empty result", model)
		}
		var samples []float64
		for rep := 0; rep < cfg.Reps; rep++ {
			env.Slice.Control.Sleep(IdleGap)
			var m transfer.Metrics
			if err := ctl.Send(peers[0],
				transfer.NewVirtualFile("selected", transfer.Mb, int64(rep)), parts, &m); err != nil {
				return nil, fmt.Errorf("fig6 %s via %s: %w", model, peers[0], err)
			}
			samples = append(samples, m.TransmissionTime().Seconds()/float64(parts))
		}
		return []float64{metrics.Mean(samples)}, nil
	})
}

// Fig7Work is the processing demand used in Figure 7's runs: handling a
// 50 Mb file costs 120 reference-seconds of compute.
const Fig7Work = 120.0

// executionCell is Figure 7's cell: on one peer, {minutes of just executing
// a processing task, minutes of transferring its 50 Mb input first and then
// executing}.
func executionCell(cfg Config, _ int, label string, rep int) ([]float64, error) {
	return envCell(cfg, []string{label}, func(env *Env, ctl *overlay.Client) ([]float64, error) {
		host := env.Host(label)
		work := task.Task{
			Name:      fmt.Sprintf("process-50Mb-%d", rep),
			WorkUnits: Fig7Work,
			InputSize: 50 * transfer.Mb,
		}
		env.Slice.Control.Sleep(IdleGap)
		// Just execution: the input is already at the peer.
		res, err := ctl.SubmitTask(host, work)
		if err != nil {
			return nil, fmt.Errorf("fig7 exec %s: %w", label, err)
		}

		env.Slice.Control.Sleep(IdleGap)
		// Transmission & execution. The input travels in 4 parts —
		// by Figure 5 the platform's users would not ship 50 Mb whole.
		start := env.Slice.Control.Now()
		if err := ctl.Send(host,
			transfer.NewVirtualFile("input", 50*transfer.Mb, int64(rep)), 4, new(transfer.Metrics)); err != nil {
			return nil, fmt.Errorf("fig7 transfer %s: %w", label, err)
		}
		if _, err := ctl.SubmitTask(host, work); err != nil {
			return nil, fmt.Errorf("fig7 exec-after-transfer %s: %w", label, err)
		}
		return []float64{res.Elapsed.Minutes(), env.Slice.Control.Now().Sub(start).Minutes()}, nil
	})
}
