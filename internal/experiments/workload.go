// Workload runner: executes a flow set over a scenario on the parallel cell
// runner, one (scenario, workload, rep) cell per repetition, each flow a
// concurrent simulation process.
package experiments

import (
	"fmt"
	"log"
	"time"

	"peerlab/internal/metrics"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// FlowRecord is the machine-readable result of one executed flow in one
// repetition.
type FlowRecord struct {
	Rep    int    `json:"rep"`
	Index  int    `json:"index"`
	Source string `json:"source"`
	Sink   string `json:"sink"`
	Model  string `json:"model,omitempty"`
	Bytes  int    `json:"bytes"`
	Parts  int    `json:"parts"`
	// Attempts counts transmission launches (>1 means the pipe layer
	// abandoned earlier launches and the flow was relaunched).
	Attempts            int     `json:"attempts"`
	PetitionSeconds     float64 `json:"petition_seconds"`
	TransmissionSeconds float64 `json:"transmission_seconds"`
	// Failed marks a flow a churning scenario recorded as failed (source
	// departed, sink gone mid-transfer, selection came up empty); Error
	// carries the cause. Static scenarios never set either — a failing
	// flow there aborts the run.
	Failed bool   `json:"failed,omitempty"`
	Error  string `json:"error,omitempty"`
	// Degraded marks a sink picked from the source's cached directory
	// because the broker could not answer; Retries counts the extra
	// selection-call attempts the flow spent. Both stay zero outside fault
	// scenarios.
	Degraded bool `json:"degraded,omitempty"`
	Retries  int  `json:"retries,omitempty"`
	// Pieces counts the pieces this downloader received (dissemination
	// workloads; omitted elsewhere). Stalls counts the playback deadlines
	// it missed (streaming mode). ReOriginated marks a downloader that
	// also uploaded at least one piece it held — the sink-became-source
	// path the dissemination workloads exist to measure.
	Pieces       int  `json:"pieces,omitempty"`
	Stalls       int  `json:"stalls,omitempty"`
	ReOriginated bool `json:"reoriginated,omitempty"`
}

// WorkloadSummary aggregates a report's flows. The churn counters are zero
// (and omitted from JSON) on static scenarios.
type WorkloadSummary struct {
	Flows                   int     `json:"flows"`
	TotalBytes              int64   `json:"total_bytes"`
	Relaunched              int     `json:"relaunched"`
	MaxAttempts             int     `json:"max_attempts"`
	MeanTransmissionSeconds float64 `json:"mean_transmission_seconds"`
	MaxTransmissionSeconds  float64 `json:"max_transmission_seconds"`
	// FailedFlows counts flows recorded as failed under churn.
	FailedFlows int `json:"failed_flows,omitempty"`
	// PeersDeparted counts the schedule's up→down transitions across all
	// repetitions.
	PeersDeparted int `json:"peers_departed,omitempty"`
	// SelectionsStale counts model-selected sinks whose lease had certainly
	// expired at selection time (see auditSelections): the lease machinery's
	// audit, so a nonzero count is a finding.
	SelectionsStale int `json:"selections_stale,omitempty"`
	// SelectionsLagged counts model-selected sinks that were departed at
	// selection time but still inside their lease window — the inherent
	// staleness a TTL'd directory admits, the figure churn studies care
	// about.
	SelectionsLagged int `json:"selections_lagged,omitempty"`
	// RetriesSpent sums the extra selection-call attempts across flows
	// (fault scenarios; zero elsewhere).
	RetriesSpent int `json:"retries_spent,omitempty"`
	// SelectionsDegraded counts flows whose sink came from the source's
	// cached directory because the broker could not answer.
	SelectionsDegraded int `json:"selections_degraded,omitempty"`
	// FlowsRecovered counts flows that completed despite control-plane
	// faults — a degraded selection or at least one selection retry. A
	// flow that merely relaunched its transmission is not recovered (that
	// is data-plane weather, counted in Relaunched).
	FlowsRecovered int `json:"flows_recovered,omitempty"`
	// BrokerDownSeconds is the fault plan's total broker-blackout time
	// (overlaps merged), summed across repetitions. Plan-derived, so it is
	// identical at any worker or shard count.
	BrokerDownSeconds float64 `json:"broker_down_seconds,omitempty"`
	// Dissemination counters, zero (and omitted) for the single-round
	// workloads. PiecesMoved counts piece deliveries — partial progress of
	// failed downloaders included, so a churn departure cannot silently
	// lose accounting. PeersReOriginated counts downloaders that uploaded
	// at least one piece; StalledFlows/TotalStalls score streaming
	// playback; Like/CrossPairBytes split the peer-pair byte matrix by
	// bandwidth class (fast half vs slow half of the catalog, control
	// pairs excluded) — the Legout clustering measurement.
	PiecesMoved       int   `json:"pieces_moved,omitempty"`
	PeersReOriginated int   `json:"peers_reoriginated,omitempty"`
	StalledFlows      int   `json:"stalled_flows,omitempty"`
	TotalStalls       int   `json:"total_stalls,omitempty"`
	LikePairBytes     int64 `json:"like_pair_bytes,omitempty"`
	CrossPairBytes    int64 `json:"cross_pair_bytes,omitempty"`
}

// WorkloadReport is RunWorkload's result: every flow of every repetition in
// (rep, flow-index) order, plus a summary.
type WorkloadReport struct {
	Workload string          `json:"workload"`
	Scenario string          `json:"scenario"`
	Reps     int             `json:"reps"`
	Flows    []FlowRecord    `json:"flows"`
	Summary  WorkloadSummary `json:"summary"`
}

// ResolveWorkload picks the configured workload, the scenario's hint, or the
// controller-fanout default, in that order.
func ResolveWorkload(configured workload.Workload, sc scenario.Scenario) (workload.Workload, error) {
	if !configured.IsZero() {
		return configured, nil
	}
	if sc.Workload != "" {
		return workload.Parse(sc.Workload)
	}
	return workload.ControllerFanout(), nil
}

// participants returns the peer labels a flow set touches, or nil (= boot
// the whole slice) when any flow resolves its sink through the selection
// service and therefore needs the full candidate set registered.
func participants(flows []workload.Flow) []string {
	seen := make(map[string]bool)
	var labels []string
	add := func(l string) {
		if l != "" && !seen[l] {
			seen[l] = true
			labels = append(labels, l)
		}
	}
	for _, f := range flows {
		if f.Sink == "" {
			return nil
		}
		add(f.Source)
		add(f.Sink)
	}
	return labels
}

// workloadCellResult is one repetition's records plus its churn and fault
// counters.
type workloadCellResult struct {
	recs                    []FlowRecord
	departed, stale, lagged int
	brokerDown              float64
	// like/cross split a dissemination cell's pair matrix by bandwidth
	// class (zero for single-round workloads).
	like, cross int64
}

// RunWorkload executes cfg's workload over cfg's scenario, one cell per
// repetition, and returns the per-flow records in (rep, flow-index) order.
func RunWorkload(cfg Config) (*WorkloadReport, error) {
	cfg = cfg.WithDefaults()
	w, err := ResolveWorkload(cfg.Workload, cfg.Scenario)
	if err != nil {
		return nil, err
	}
	cells, err := runCells(cfg, "workload:"+w.Name, cfg.Reps,
		func(rep int, cellCfg Config) (workloadCellResult, error) {
			return workloadCell(cellCfg, w, rep)
		})
	if err != nil {
		return nil, fmt.Errorf("experiments: workload %s: %w", w.Name, err)
	}
	report := &WorkloadReport{Workload: w.Name, Scenario: cfg.Scenario.Name, Reps: cfg.Reps}
	for _, cell := range cells {
		report.Flows = append(report.Flows, cell.recs...)
	}
	report.Summary = summarize(report.Flows)
	for _, cell := range cells {
		report.Summary.addCell(cell)
	}
	return report, nil
}

// addCell folds one cell's schedule-, plan- and pair-derived counters —
// the ones that are not sums over flow records — into the summary.
func (s *WorkloadSummary) addCell(c workloadCellResult) {
	s.PeersDeparted += c.departed
	s.SelectionsStale += c.stale
	s.SelectionsLagged += c.lagged
	s.BrokerDownSeconds += c.brokerDown
	s.LikePairBytes += c.like
	s.CrossPairBytes += c.cross
}

// rememberedHosts maps a scenario's Remembered labels — the "user memory"
// the quick-peer model consults — to hostnames, the workload.Env.Preferred
// form.
func rememberedHosts(env *Env, sc scenario.Scenario) []string {
	hosts := make([]string, 0, len(sc.Remembered))
	for _, label := range sc.Remembered {
		if h := env.Host(label); h != "" {
			hosts = append(hosts, h)
		}
	}
	return hosts
}

// workloadCell deploys one repetition's slice and runs every flow of the
// workload over it: the only cell runner, two independent choices —
// membership and engine — read off its inputs (DESIGN.md "One cell:
// membership × engine"). Under a churn schedule every model-selected sink is
// audited against it (auditSelections).
func workloadCell(cellCfg Config, w workload.Workload, rep int) (workloadCellResult, error) {
	sc := cellCfg.Scenario
	flows := w.Flows(sc.Labels, cellCfg.Seed)
	if len(flows) == 0 {
		return workloadCellResult{}, fmt.Errorf("workload %s produced no flows", w.Name)
	}
	return envCell(cellCfg, participants(flows), func(env *Env, ctl *overlay.Client) (workloadCellResult, error) {
		var res workloadCellResult
		wenv := env.Workload(ctl)
		wenv.Preferred = rememberedHosts(env, sc)
		wenv.Logf = cellCfg.logf
		dyn := env.Dynamics
		var booted time.Duration
		if dyn == nil {
			wenv.IdleGap = IdleGap
		} else {
			booted = env.Slice.Control.Now().Sub(dyn.StartedAt())
			res.departed = dyn.Schedule.Departures()
			res.brokerDown = scenario.BrokerDowntime(dyn.Plan).Seconds()
		}
		outcome, err := workload.Run(wenv, dyn, w, flows, cellCfg.Seed)
		if err != nil {
			return res, err
		}
		res.recs = flowRecords(outcome.Results, rep)
		if w.Disseminate != nil {
			res.like, res.cross = clusterBytes(env.Slice.Catalog, outcome.PairBytes)
		}
		if dyn != nil {
			res.stale, res.lagged = auditSelections(outcome.Results, dyn, sc.EffectiveAdvTTL())
			if lag, late := dyn.Lag(); lag > staleSlack {
				logf := cellCfg.logf
				if logf == nil {
					logf = log.Printf
				}
				logf("experiments: WARNING: %s: the churn schedule ran up to %v late, at the %v of %s due at %v; the stale-selection audit allowed for that much. Its %d initial peers took %v to boot, one registration at a time",
					sc.Name, lag.Round(time.Millisecond), late.Kind, late.Label, late.At.Round(time.Millisecond),
					len(dyn.Schedule.Initial()), booted.Round(time.Millisecond))
			}
		}
		return res, nil
	})
}

// staleSlack absorbs the gap between a schedule's leave offset and the last
// renewal the broker could still have processed for the departing peer (a
// stats report in flight when the client stopped). A selection is stale only
// when the sink was down throughout [selection−TTL−slack−lag, selection]
// (DESIGN.md "Leases & churn").
const staleSlack = 10 * time.Second

// selectFlight bounds how long a selection request is in flight before the
// broker builds its candidate set: a sink that rejoined (fresh lease)
// within this window after the request instant may legitimately be handed
// out, so the staleness audit extends its down-throughout window past the
// request by this much.
const selectFlight = 5 * time.Second

// auditSelections classifies every model-selected sink the schedule says
// was departed at selection time as lagged (inside its lease window) or
// stale (down throughout it); fixed-sink flows select nothing.
func auditSelections(results []workload.Result, dyn *workload.Dynamics, advTTL time.Duration) (stale, lagged int) {
	lag, _ := dyn.Lag()
	for _, r := range results {
		if r.Flow.Model == "" || r.Sink == "" || r.SelectedAt.IsZero() {
			continue
		}
		at := r.SelectedAt.Sub(dyn.StartedAt())
		if dyn.Schedule.LiveAt(r.Sink, at) {
			continue
		}
		// The window extends selectFlight past the request instant:
		// the broker decides one request leg later, and a rejoin
		// registering inside that flight legitimately puts the sink
		// back in the candidate set.
		if dyn.Schedule.DownThroughout(r.Sink, at-advTTL-staleSlack-lag, at+selectFlight) {
			stale++
		} else {
			lagged++
		}
	}
	return stale, lagged
}

// flowRecords maps executed flow results into records for one repetition.
func flowRecords(results []workload.Result, rep int) []FlowRecord {
	recs := make([]FlowRecord, len(results))
	for i, r := range results {
		source := r.Flow.Source
		if source == "" {
			source = "control"
		}
		recs[i] = FlowRecord{
			Rep:                 rep,
			Index:               r.Flow.Index,
			Source:              source,
			Sink:                r.Sink,
			Model:               r.Flow.Model,
			Bytes:               r.Flow.SizeBytes,
			Parts:               r.Flow.Parts,
			Attempts:            r.Metrics.Attempts,
			PetitionSeconds:     r.Metrics.PetitionDelay().Seconds(),
			TransmissionSeconds: r.Metrics.TransmissionTime().Seconds(),
			Failed:              r.Err != "",
			Error:               r.Err,
			Degraded:            r.Degraded,
			Retries:             r.Retries,
			Pieces:              r.Pieces,
			Stalls:              r.Stalls,
			ReOriginated:        r.ReOriginated,
		}
	}
	return recs
}

func summarize(recs []FlowRecord) WorkloadSummary {
	s := WorkloadSummary{Flows: len(recs)}
	var xs []float64
	for _, r := range recs {
		// Attempt accounting covers every flow — a failed flow that burned
		// the whole relaunch budget is exactly the one Relaunched and
		// MaxAttempts exist to surface.
		if r.Attempts > 1 {
			s.Relaunched++
		}
		if r.Attempts > s.MaxAttempts {
			s.MaxAttempts = r.Attempts
		}
		s.RetriesSpent += r.Retries
		if r.Degraded {
			s.SelectionsDegraded++
		}
		if !r.Failed && (r.Degraded || r.Retries > 0) {
			s.FlowsRecovered++
		}
		// Dissemination progress is counted before the failed-flow cut: an
		// incomplete downloader's delivered pieces really moved, and losing
		// them here is exactly the lost-flow accounting the churn race test
		// guards against.
		s.PiecesMoved += r.Pieces
		if r.ReOriginated {
			s.PeersReOriginated++
		}
		if r.Stalls > 0 {
			s.StalledFlows++
			s.TotalStalls += r.Stalls
		}
		if r.Failed {
			// Failed flows moved no payload and have no surviving timing;
			// counting their bytes or zeros would skew the totals.
			s.FailedFlows++
			continue
		}
		s.TotalBytes += int64(r.Bytes)
		xs = append(xs, r.TransmissionSeconds)
	}
	sum := metrics.Summarize(xs) // zeros when every flow failed
	s.MeanTransmissionSeconds, s.MaxTransmissionSeconds = sum.Mean, sum.Max
	return s
}
