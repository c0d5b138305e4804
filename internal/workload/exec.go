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
	// HostOf maps a peer label to its hostname. LabelOf is the inverse,
	// used to attribute model-selected sinks. Both are required.
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

// warn routes a warning through logf, or log.Printf when logf is nil.
func warn(logf func(format string, args ...any), format string, args ...any) {
	if logf == nil {
		logf = log.Printf
	}
	logf(format, args...)
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
	// closures rather than a cold-start burst of goroutines. Each fills its
	// out slot in place and lends runFlow a stack copy of env, off the heap.
	for i := range flows {
		env.Host.Go(func() {
			env, res := env, &out[i]
			err := runFlow(&env, &flows[i], seed, res)
			if err != nil && env.recordFailures {
				// Keep everything the failed flow did establish — the sink
				// it selected, when, and the attempts it burned — and
				// record only the cause on top.
				res.Flow, res.Err, err = flows[i], err.Error(), nil
			}
			errs[i] = err
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

// runFlow executes one flow into res, which starts zeroed: wait out its
// start offset (churn staggering), resolve the source client against live
// membership, resolve the sink (fixed, or via the source's own selection
// call), then transmit with the standard relaunch budget. A failure after
// sink resolution still reports the sink and its resolution instant, so
// churn audits can classify the selection even when the transfer died.
func runFlow(env *Env, f *Flow, seed int64, res *Result) error {
	if env.startOf != nil {
		if d := env.startOf(*f); d > 0 {
			env.Host.Sleep(d)
		}
	}
	srcLabel := f.Source
	src := env.Control
	if f.Source != "" {
		src = env.Clients[f.Source]
		if src == nil {
			return fmt.Errorf("no client for source %q (departed?)", f.Source)
		}
	} else {
		srcLabel = "control"
	}
	if src == nil {
		return errors.New("no control client for controller-sourced flow")
	}

	// SelectedAt is stamped when the request is issued, not when the reply
	// lands: the reply leg can pay the source's wake lag, and churn audits
	// need an instant at (or before) the broker's decision so "lease
	// certainly expired by then" is sound.
	res.SelectedAt = env.Host.Now()
	sinkHost, sinkLabel := "", ""
	if f.Sink != "" {
		sinkHost, sinkLabel = env.HostOf(f.Sink), f.Sink
	} else {
		req := core.Request{Kind: core.KindFileTransfer, SizeBytes: f.SizeBytes}
		var preferred []string
		if core.UsesPreferences(f.Model) {
			preferred = env.Preferred
		}
		sel, err := src.SelectDetailed(f.Model, req, 1, preferred, env.ExcludeSinks)
		res.Retries = sel.Retries
		if err != nil {
			return fmt.Errorf("select %s: %w", f.Model, err)
		}
		if len(sel.Peers) == 0 {
			return fmt.Errorf("select %s: empty result", f.Model)
		}
		res.Degraded = sel.Degraded
		sinkHost, sinkLabel = sel.Peers[0], env.LabelOf(sel.Peers[0])
	}
	res.Flow, res.Sink = *f, sinkLabel

	file := transfer.NewVirtualFile(f.FileName, f.SizeBytes, FlowSeed(seed, f.Index))
	flowID := fmt.Sprintf("flow %d (%s -> %s)", f.Index, srcLabel, sinkLabel)
	// Kept even on failure: res.Metrics.Attempts counts the relaunches spent.
	send := func() error { return src.Send(sinkHost, file, f.Parts, &res.Metrics) }
	if err := sendRelaunched(env.Logf, env.Host.Sleep, env.IdleGap, send, src.Name(), sinkHost, &file, flowID, &res.Metrics); err != nil {
		return fmt.Errorf("%s -> %s: %w", src.Name(), sinkLabel, err)
	}
	return nil
}

// SendRelaunched transmits f to host, relaunching a transmission the pipe
// layer abandoned outright up to Attempts times; sleep(gap) runs before each
// attempt so the sink falls idle again. It fills m with the surviving
// attempt's record and the attempt count. flowID names the flow for the
// exhaustion warning — source and sink labels included, so an operator
// reading the log can tell which flow of which workload gave up. Exhausting
// the budget is logged through logf (nil = the process default logger;
// parallel cells must pass their own so concurrent warnings don't
// interleave); it is an operator-visible event, not a silent failure.
func SendRelaunched(logf func(format string, args ...any),
	sleep func(time.Duration), gap time.Duration, src *overlay.Client,
	host string, f transfer.File, parts int, flowID string, m *transfer.Metrics) error {
	send := func() error { return src.Send(host, f, parts, m) }
	return sendRelaunched(logf, sleep, gap, send, src.Name(), host, &f, flowID, m)
}

// sendRelaunched is the shared relaunch loop, with the send injectable so
// the exhaustion path is testable without fabricating a pathological
// network. send fills m with one attempt's record; it closes over m rather
// than taking it, so m does not escape through a func value's call.
func sendRelaunched(logf func(format string, args ...any),
	sleep func(time.Duration), gap time.Duration, send func() error,
	srcName, host string, f *transfer.File, flowID string, m *transfer.Metrics) error {
	var lastErr error
	for attempt := 1; attempt <= Attempts; attempt++ {
		if gap > 0 {
			sleep(gap)
		}
		err := send()
		m.Attempts = attempt
		if err == nil {
			return nil
		}
		if !errors.Is(err, transfer.ErrFailed) {
			// A rejection, an invalid request or a stopped source is not
			// transient. Like an exhausted budget, the record keeps only
			// the attempt count.
			*m = transfer.Metrics{Attempts: attempt}
			return err
		}
		lastErr = err
	}
	*m = transfer.Metrics{Attempts: Attempts}
	return exhausted(logf, flowID, srcName, host, f, lastErr)
}

// exhausted logs and returns a spent relaunch budget, out of line so the
// loop's frame, under every parked transfer, does not carry its arguments.
func exhausted(logf func(format string, args ...any), flowID, srcName, host string, f *transfer.File, lastErr error) error {
	warn(logf, "workload: WARNING: %s: transfer %s -> %s (%s, %d bytes) abandoned after exhausting %d attempts: %v",
		flowID, srcName, host, f.Name, f.Size, Attempts, lastErr)
	return fmt.Errorf("gave up after %d attempts: %w", Attempts, lastErr)
}
