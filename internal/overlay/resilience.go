// Control-plane resilience: the one resilience profile (deadline, bounded
// retries, deterministic backoff jitter, degraded-mode selection over the
// cached directory) and the typed error taxonomy for broker replies.
//
// A client that is not Resilient takes the same call path with one attempt
// and no deadline, hence no timer, no extra RPC and no random draw — which is
// why deployments without a fault plan have the event stream of a single
// blocking exchange.

package overlay

import (
	"bytes"
	"cmp"
	"errors"
	"fmt"
	"slices"
	"strconv"
	"strings"
	"sync"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// Typed control-plane errors. ErrBrokerDown (client.go) remains the
// transport-level classification; these refine what the broker itself said.
var (
	// ErrCallTimeout marks a control RPC that exhausted its per-attempt
	// deadline (callTimeout). Broker-destined timeouts also match
	// ErrBrokerDown.
	ErrCallTimeout = errors.New("overlay: call timed out")
	// ErrBadReply marks a reply of the wrong message kind — a protocol
	// bug or a truncated exchange, not an unreachable broker.
	ErrBadReply = errors.New("overlay: bad reply")
	// ErrRegistrationRefused marks a register exchange the broker
	// answered with a refusal.
	ErrRegistrationRefused = errors.New("overlay: registration refused")
	// ErrNoCandidates maps the broker-side core.ErrNoCandidates: the
	// directory held no eligible peer (empty, or everything excluded).
	ErrNoCandidates = errors.New("overlay: no candidate peers")
	// ErrModelUnknown marks a selection request naming a model the broker
	// does not serve.
	ErrModelUnknown = errors.New("overlay: unknown selection model")
)

// selectionError maps a broker-side selection error string (the wire format
// carries only the string) back to a typed sentinel, so workload failure
// records can distinguish "no peers" from transport faults.
func selectionError(s string) error {
	switch {
	case s == core.ErrNoCandidates.Error():
		return ErrNoCandidates
	case strings.HasPrefix(s, "overlay: unknown selection model"):
		return fmt.Errorf("%w: %s", ErrModelUnknown, strings.TrimPrefix(s, "overlay: unknown selection model "))
	default:
		return fmt.Errorf("overlay: selection: %s", s)
	}
}

// The resilience profile a Resilient client's control RPCs run under.
const (
	// callTimeout is the whole-call deadline per attempt: dial, send and
	// reply.
	callTimeout = 10 * time.Second
	// callRetries is how many times a failed call is re-attempted.
	callRetries = 3
	// callBackoff is the sleep before the first retry; it doubles per retry
	// up to maxCallBackoff. Each sleep is jittered to 75 %–125 % by a draw
	// from the node's seed stream, so concurrent retriers desynchronize
	// deterministically.
	callBackoff    = 2 * time.Second
	maxCallBackoff = 16 * time.Second
)

// Selection is one selection call's detailed outcome.
type Selection struct {
	// Peers are the selected peer hostnames, best first.
	Peers []string
	// Degraded reports that the broker could not answer and the peers came
	// from the client's cached directory instead.
	Degraded bool
	// Retries counts the extra call attempts this selection spent.
	Retries int
}

// resilience is the client's fault-handling state: the cached directory. It
// is guarded for -race tests; under the serialized simulation dispatcher
// contention never happens.
type resilience struct {
	mu sync.Mutex
	// reply is the last discover reply that validated, kept as received
	// (the client owns the payload); dir is its decoding, made by the first
	// read after a new reply and handed to every read until the next one
	// (nil until then; an empty reply decodes to nil, at no cost).
	reply []byte
	dir   []jxta.Advertisement
}

// setDir replaces the cached directory with a discover reply that passes
// every check decoding it would make; one that fails any leaves the cache as
// it was. A heartbeat refreshes the cache far more often than a blackout
// reads it, so nothing is decoded, or allocated, here, and a reply equal to
// the one held (under simnet, the same buffer) keeps it and its decoding.
func (r *resilience) setDir(reply []byte) error {
	if len(reply) == 0 || reply[0] != mtDiscoverResult {
		return fmt.Errorf("%w: discover", ErrBadReply)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if bytes.Equal(reply, r.reply) {
		return nil
	}
	if _, err := scanDiscoverResult(wire.NewDecoder(reply[1:])); err != nil {
		return err
	}
	r.reply, r.dir = reply, nil
	return nil
}

// snapshotDir returns the cached directory (shared slice; callers only
// read it), decoding the reply if no read since it was kept has: a reply
// that passed the scan once passes it again.
func (r *resilience) snapshotDir() []jxta.Advertisement {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.dir == nil && r.reply != nil {
		dir, _ := scanDiscoverResult(wire.NewDecoder(r.reply[1:]))
		r.dir = dir.Decode()
	}
	return r.dir
}

// callOnce performs one request/response exchange on a fresh conn, bounded
// by timeout (zero = unbounded). The conn's deadline closes it, which
// unblocks both the send and the receive leg; the returned flag reports
// whether the deadline fired.
func (c *Client) callOnce(to transport.Addr, payload []byte, timeout time.Duration) ([]byte, bool, error) {
	conn, err := c.ctlMux.Dial(to)
	if err != nil {
		return nil, false, err
	}
	defer conn.Close()
	if timeout > 0 {
		conn.CloseAfter(timeout)
	}
	if err := conn.Send(payload); err != nil {
		return nil, conn.Expired(), err
	}
	msg, err := conn.Recv()
	if err != nil {
		return nil, conn.Expired(), err
	}
	return msg.Payload, false, nil
}

// callRetried runs one call over callOnce: a single unbounded attempt, or,
// for a Resilient client, the profile's bounded re-attempts with doubling,
// jittered backoff. The returned count is the retries spent (0 when the first
// attempt succeeded). Failures are classified: once the client's own Stop has
// closed its mux a call reports the client stopped (pipe.ErrClosed in the
// chain), a deadline expiry matches ErrCallTimeout, any other broker-destined
// failure matches ErrBrokerDown, and failures to other peers return
// unwrapped (an instant message to a dead peer is not a broker fault).
func (c *Client) callRetried(to transport.Addr, payload []byte) ([]byte, int, error) {
	attempts, timeout := 1, time.Duration(0)
	if c.cfg.Resilient {
		attempts, timeout = callRetries+1, callTimeout
	}
	backoff := callBackoff
	var lastErr error
	lastTimeout := false
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			f := 0.75 + 0.5*c.host.Rand().Float64()
			c.host.Sleep(time.Duration(float64(backoff) * f))
			backoff = min(2*backoff, maxCallBackoff)
		}
		reply, timedOut, err := c.callOnce(to, payload, timeout)
		if err == nil {
			return reply, attempt, nil
		}
		lastErr, lastTimeout = err, timedOut
	}
	retries := attempts - 1
	switch {
	case c.stopped.Load():
		return nil, retries, fmt.Errorf("overlay: client stopped: %w", lastErr)
	case lastTimeout && to == c.broker:
		return nil, retries, fmt.Errorf("%w: %w: %v", ErrBrokerDown, ErrCallTimeout, lastErr)
	case lastTimeout:
		return nil, retries, fmt.Errorf("%w: %v", ErrCallTimeout, lastErr)
	case to == c.broker:
		return nil, retries, fmt.Errorf("%w: %v", ErrBrokerDown, lastErr)
	default:
		return nil, retries, lastErr
	}
}

// SelectDetailed is SelectPeers with extra peers removed from candidacy (the
// requester itself is always excluded — multi-source workloads keep the
// control node out of peer↔peer sink selection this way) and with the full
// outcome: the selected peers plus whether the pick was degraded and how many
// retries it cost.
// When the broker cannot answer — transport failure, deadline expiry, or a
// cold post-restart directory reporting no candidates — a Resilient client
// picks locally from its cached directory (best CPU score first) and the
// selection is counted degraded rather than failed. A no-candidates reply
// additionally triggers a best-effort re-registration, restoring the client's
// own directory entry after a broker restart wiped it.
func (c *Client) SelectDetailed(model string, req core.Request, max int, preferred, exclude []string) (Selection, error) {
	sreq := selectReq{
		Model:      model,
		Kind:       byte(req.Kind),
		SizeBytes:  req.SizeBytes,
		WorkUnits:  req.WorkUnits,
		MaxResults: max,
		Preferred:  preferred,
		Exclude:    append([]string{c.host.Name()}, exclude...),
	}
	reply, retries, err := c.callRetried(c.broker, wire.Frame(mtSelect, sreq.encodeTo))
	sel := Selection{Retries: retries}
	if err != nil {
		if peers := c.degradedPick(max, exclude); peers != nil {
			sel.Peers, sel.Degraded = peers, true
			return sel, nil
		}
		return sel, err
	}
	kind, d, err := wire.Tag(reply)
	if err != nil || kind != mtSelectResult {
		return sel, fmt.Errorf("%w: select", ErrBadReply)
	}
	res, err := decodeSelectResult(d)
	if err != nil {
		return sel, err
	}
	if res.Err != "" {
		serr := selectionError(res.Err)
		if errors.Is(serr, ErrNoCandidates) {
			if peers := c.degradedPick(max, exclude); peers != nil {
				// The broker answered but knows no peers — it likely
				// restarted cold. Re-register (best-effort) so our own
				// entry returns, and serve this pick from the cache.
				_ = c.register()
				sel.Peers, sel.Degraded = peers, true
				return sel, nil
			}
		}
		return sel, serr
	}
	sel.Peers = res.Peers
	return sel, nil
}

// degradedPick selects up to max peers from the cached directory, best CPU
// score first (ties by name), excluding the client itself and the given
// hostnames; a score that is missing, unparsable or not one the broker
// would store (validScore) counts as the neutral 1. Returns nil — "cannot
// degrade" — when the client is not Resilient or the cache yields no
// eligible peer.
func (c *Client) degradedPick(max int, exclude []string) []string {
	if !c.cfg.Resilient {
		return nil
	}
	type cand struct {
		name  string
		score float64
	}
	var cands []cand
	for _, a := range c.res.snapshotDir() {
		if a.Name == c.host.Name() || slices.Contains(exclude, a.Name) {
			continue
		}
		score := 1.0
		if f, err := strconv.ParseFloat(a.Attr(jxta.AttrCPUScore), 64); err == nil && validScore(f) {
			score = f
		}
		cands = append(cands, cand{a.Name, score})
	}
	if len(cands) == 0 {
		return nil
	}
	slices.SortFunc(cands, func(x, y cand) int { return cmp.Or(cmp.Compare(y.score, x.score), strings.Compare(x.name, y.name)) })
	if max > 0 && len(cands) > max {
		cands = cands[:max]
	}
	peers := make([]string, len(cands))
	for i, cd := range cands {
		peers[i] = cd.name
	}
	return peers
}
