package workload

import (
	"errors"
	"fmt"
	"log"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/overlay"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
)

// Attempts bounds how many times a flow relaunches a transmission the pipe
// layer abandoned outright — the operator's behavior on the real platform.
const Attempts = 4

// Env is the harness-supplied execution environment for a flow set: who the
// clients are, how labels map to hostnames, and where flow processes run.
// Run swaps in a churning deployment's live membership, launch stagger and
// failure recording.
type Env struct {
	// Host is the driver node; flow processes attach to its scheduler.
	Host transport.Host
	// Control is the control node's client — the source of flows whose
	// Source label is empty.
	Control *overlay.Client
	// Clients maps a peer label to its running client. Every label that
	// appears as a flow source must be present — except under Run's live
	// membership, where this is the conductor's map and a peer that is down
	// right now has no entry (its flows fail, or are recorded failed).
	Clients map[string]*overlay.Client
	// HostOf maps a peer label to its hostname; nil means labels are
	// hostnames. LabelOf is the inverse, used to attribute model-selected
	// sinks; nil likewise means identity.
	HostOf  func(label string) string
	LabelOf func(host string) string
	// ExcludeSinks lists hostnames never eligible as model-selected sinks
	// (the control node: swarm flows are peer↔peer).
	ExcludeSinks []string
	// Preferred is the user's remembered peer ranking (hostnames, fastest
	// first — a scenario's Remembered hints), sent with selection requests
	// whose model consumes one (quick-peer / user-preference). Only those
	// requests carry it: other models ignore preferences, and padding their
	// requests would change wire sizes and with them the byte-identical
	// event stream of existing workloads. nil means no user memory — the
	// preference models then degrade to first-candidate, which is almost
	// never what a measurement wants.
	Preferred []string
	// IdleGap is slept before each transmission attempt, long enough for
	// the sink to fall idle again (wake lag re-applies, as in the paper's
	// measurements). Zero skips the gap.
	IdleGap time.Duration
	// Logf receives operator-visible warnings (relaunch-budget exhaustion).
	// nil falls back to the process-wide default logger — acceptable for a
	// single interactive run, but parallel cells must each supply their own
	// so concurrent warnings don't interleave on stderr.
	Logf func(format string, args ...any)

	// startOf, when set, delays each flow's launch by the returned offset
	// (Stagger spreads launches across a churn horizon). nil launches every
	// flow at once — the static default.
	startOf func(f Flow) time.Duration
	// recordFailures, when true, records a failing flow in its Result (Err
	// field set, zero metrics) instead of failing the whole Execute. Churn
	// makes individual flow failure an expected measurement — a source
	// departed mid-flow, a lease-lagged sink refused — not a harness bug.
	recordFailures bool
}

func (e Env) hostOf(label string) string {
	if e.HostOf == nil {
		return label
	}
	return e.HostOf(label)
}

func (e Env) labelOf(host string) string {
	if e.LabelOf == nil {
		return host
	}
	return e.LabelOf(host)
}

// logf routes a warning through the environment's logger, or the process
// default when none was supplied.
func (e Env) logf(format string, args ...any) {
	if e.Logf != nil {
		e.Logf(format, args...)
		return
	}
	log.Printf(format, args...)
}

// Result is one executed flow's record.
type Result struct {
	// Flow is the flow as specified.
	Flow Flow
	// Sink is the resolved sink label — the fixed sink, or the peer the
	// source's selection call picked.
	Sink string
	// SelectedAt is the virtual instant the sink was resolved (the
	// selection reply for model-driven flows, flow launch for fixed
	// sinks). Churn audits compare it against the membership schedule to
	// classify lagged and stale selections.
	SelectedAt time.Time
	// Metrics is the surviving attempt's full timing record; its Attempts
	// field counts the relaunches spent.
	Metrics transfer.Metrics
	// Err is the flow's failure when a churning Run kept it; "" on
	// success.
	Err string
	// Degraded reports the sink came from the source's cached directory
	// because the broker could not answer the selection call.
	Degraded bool
	// Retries counts the extra selection-call attempts the flow spent (a
	// Resilient source's retries; zero elsewhere).
	Retries int
	// Pieces counts the pieces this downloader received (dissemination
	// workloads only; zero elsewhere).
	Pieces int
	// Stalls counts the playback deadlines this downloader missed
	// (streaming mode only).
	Stalls int
	// ReOriginated reports this downloader also uploaded at least one
	// piece it held — the sink-became-source path.
	ReOriginated bool
}

// Execute runs every flow as its own concurrent simulation process and
// returns results in flow-index order. Flow payload seeds derive from
// (seed, index) via FlowSeed, and results are collected positionally, so
// the output is deterministic for a given seed regardless of completion
// order. On failure the error of the lowest-index failing flow is returned.
func Execute(env Env, flows []Flow, seed int64) ([]Result, error) {
	out := make([]Result, len(flows))
	errs := make([]error, len(flows))
	join := env.Host.NewQueue()
	// All flows launch at t=0 (stagger happens inside runFlow). Spawned
	// processes are pooled and lazily started, so even 100k flows queue
	// closures rather than a cold-start burst of goroutines.
	for i, f := range flows {
		env.Host.Go(func() {
			res, err := runFlow(env, f, seed)
			if err != nil && env.recordFailures {
				// Keep everything the failed flow did establish — the sink
				// it selected, when, and the attempts it burned — and
				// record only the cause on top.
				res.Flow = f
				res.Err = err.Error()
				err = nil
			}
			out[i], errs[i] = res, err
			join.Push(i)
		})
	}
	for range flows {
		if _, err := join.Pop(); err != nil {
			return nil, fmt.Errorf("workload: join queue: %w", err)
		}
	}
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("workload: flow %d: %w", i, err)
		}
	}
	return out, nil
}

// runFlow executes one flow: wait out its start offset (churn staggering),
// resolve the source client against live membership, resolve the sink
// (fixed, or via the source's own selection call), then transmit with the
// standard relaunch budget. A failure after sink resolution still reports
// the sink and its resolution instant, so churn audits can classify the
// selection even when the transfer died.
func runFlow(env Env, f Flow, seed int64) (Result, error) {
	if env.startOf != nil {
		if d := env.startOf(f); d > 0 {
			env.Host.Sleep(d)
		}
	}
	srcLabel := f.Source
	src := env.Control
	if f.Source != "" {
		src = env.Clients[f.Source]
		if src == nil {
			return Result{}, fmt.Errorf("no client for source %q (departed?)", f.Source)
		}
	} else {
		srcLabel = "control"
	}
	if src == nil {
		return Result{}, errors.New("no control client for controller-sourced flow")
	}

	// SelectedAt is stamped when the request is issued, not when the reply
	// lands: the reply leg can pay the source's wake lag, and churn audits
	// need an instant at (or before) the broker's decision so "lease
	// certainly expired by then" is sound.
	selectedAt := env.Host.Now()
	sinkHost, sinkLabel := "", ""
	degraded, retries := false, 0
	if f.Sink != "" {
		sinkHost, sinkLabel = env.hostOf(f.Sink), f.Sink
	} else {
		req := core.Request{Kind: core.KindFileTransfer, SizeBytes: f.SizeBytes}
		var preferred []string
		if core.UsesPreferences(f.Model) {
			preferred = env.Preferred
		}
		sel, err := src.SelectDetailed(f.Model, req, 1, preferred, env.ExcludeSinks)
		if err != nil {
			return Result{SelectedAt: selectedAt, Retries: sel.Retries},
				fmt.Errorf("select %s: %w", f.Model, err)
		}
		if len(sel.Peers) == 0 {
			return Result{SelectedAt: selectedAt, Retries: sel.Retries},
				fmt.Errorf("select %s: empty result", f.Model)
		}
		degraded, retries = sel.Degraded, sel.Retries
		sinkHost, sinkLabel = sel.Peers[0], env.labelOf(sel.Peers[0])
	}
	res := Result{Flow: f, Sink: sinkLabel, SelectedAt: selectedAt,
		Degraded: degraded, Retries: retries}

	file := transfer.NewVirtualFile(f.FileName, f.SizeBytes, FlowSeed(seed, f.Index))
	flowID := fmt.Sprintf("flow %d (%s -> %s)", f.Index, srcLabel, sinkLabel)
	m, err := sendRelaunched(env.logf, env.Host.Sleep, env.IdleGap, src.SendFile, src.Name(), sinkHost, file, f.Parts, flowID)
	res.Metrics = m // even on failure: Attempts carries the relaunches spent
	if err != nil {
		return res, fmt.Errorf("%s -> %s: %w", src.Name(), sinkLabel, err)
	}
	return res, nil
}

// SendRelaunched transmits f to host, relaunching a transmission the pipe
// layer abandoned outright up to Attempts times; sleep(gap) runs before each
// attempt so the sink falls idle again. The returned metrics carry the
// attempt count. flowID names the flow for the exhaustion warning — source
// and sink labels included, so an operator reading the log can tell which
// flow of which workload gave up, not just that one did. A whole-file
// transmission to a pathological sliver can die even after the pipe's
// retries — every retransmission of a large message re-rolls the receiver's
// restart model — and the operator's answer on the real platform is the
// paper's own: relaunch the transmission. Exhausting the budget is logged
// through logf (nil = the process default logger; parallel cells must pass
// their own so concurrent warnings don't interleave); it is an
// operator-visible event, not a silent failure.
func SendRelaunched(logf func(format string, args ...any),
	sleep func(time.Duration), gap time.Duration, src *overlay.Client,
	host string, f transfer.File, parts int, flowID string) (transfer.Metrics, error) {
	return sendRelaunched(logf, sleep, gap, src.SendFile, src.Name(), host, f, parts, flowID)
}

// sendRelaunched is the shared relaunch loop, with the send entry point
// injectable so the exhaustion path is testable without fabricating a
// pathological network.
func sendRelaunched(logf func(format string, args ...any),
	sleep func(time.Duration), gap time.Duration,
	send func(string, transfer.File, int) (transfer.Metrics, error),
	srcName, host string, f transfer.File, parts int, flowID string) (transfer.Metrics, error) {
	if logf == nil {
		logf = log.Printf
	}
	var lastErr error
	for attempt := 0; attempt < Attempts; attempt++ {
		if gap > 0 {
			sleep(gap)
		}
		m, err := send(host, f, parts)
		m.Attempts = attempt + 1
		if err == nil {
			return m, nil
		}
		if !errors.Is(err, transfer.ErrFailed) {
			// A rejection, an invalid request or a stopped source is not
			// transient. Like an exhausted budget, the record keeps only
			// the attempt count.
			return transfer.Metrics{Attempts: m.Attempts}, err
		}
		lastErr = err
	}
	logf("workload: WARNING: %s: transfer %s -> %s (%s, %d bytes) abandoned after exhausting %d attempts: %v",
		flowID, srcName, host, f.Name, f.Size, Attempts, lastErr)
	return transfer.Metrics{Attempts: Attempts},
		fmt.Errorf("gave up after %d attempts: %w", Attempts, lastErr)
}
