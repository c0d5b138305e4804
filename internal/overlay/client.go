package overlay

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync/atomic"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/task"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// Client errors.
var (
	ErrTaskRejected = errors.New("overlay: task rejected by peer")
	ErrBrokerDown   = errors.New("overlay: broker unreachable")
)

// ClientConfig tunes a SimpleClient.
type ClientConfig struct {
	// CPUScore advertises the node's relative compute speed (default 1, which
	// a NaN or infinite score gets too).
	CPUScore float64
	// Resilient runs every control RPC under the resilience profile
	// (resilience.go): a deadline, jittered retries and degraded-mode
	// selection from the cached directory. Otherwise a call is one attempt
	// with no deadline — no timer and no random draw.
	Resilient bool
	// OnFile observes completed inbound transfers.
	OnFile func(transfer.Received)
	// OnInstant observes inbound instant messages.
	OnInstant func(from, text string)
}

func (c ClientConfig) withDefaults() ClientConfig {
	if !validScore(c.CPUScore) {
		c.CPUScore = 1
	}
	return c
}

// finite reports whether f is neither NaN nor infinite.
func finite(f float64) bool { return !math.IsNaN(f) && !math.IsInf(f, 0) }

// validScore reports whether a CPU score counts: finite and positive. The
// broker stores no other, and a client's configured score or a degraded
// pick's advertised one reads as the neutral 1 otherwise.
func validScore(f float64) bool { return f > 0 && finite(f) }

// Client is a SimpleClient edge peer: it registers with a broker, serves
// file receptions and task executions, and offers the application the
// overlay primitives (discovery, selection, transfers, tasks, messages).
type Client struct {
	host   transport.Host
	broker transport.Addr
	cfg    ClientConfig
	// firstConnID offsets the client's conn-id space (see BootPeer).
	firstConnID uint64

	ctlMux  *pipe.Mux
	xferMux *pipe.Mux
	sender  *transfer.Sender
	exec    atomic.Pointer[task.Executor] // built on the first task; see executor

	// stopped is set by Stop: from then on a failed call or send failed on
	// the client's own closed mux, not at the broker or the sink.
	stopped    atomic.Bool
	nextTaskID atomic.Uint64
	msgsIn     atomic.Int64
	msgsOut    atomic.Int64

	// res is the fault-handling state: the cached directory degraded
	// selection falls back to, and the retry/degradation counters.
	res resilience
}

// NewClient builds a client on host homed to the given broker address.
// Call Start to bind services and register.
func NewClient(host transport.Host, broker transport.Addr, cfg ClientConfig) *Client {
	return &Client{host: host, broker: broker, cfg: cfg.withDefaults()}
}

// BootPeer is the reboot rule: NewClient + Start on a conn-id space unique
// to this boot instant. A client that may follow an earlier incarnation on its
// node (a churn rejoin, a restarted cmd/peer) boots through it: remote muxes,
// the broker's above all, drop a reused id's messages as stale retransmits.
// First boots keep the zero-based space, whose varint ids keep static
// deployments' frames byte-identical.
func BootPeer(host transport.Host, broker transport.Addr, cfg ClientConfig) (*Client, error) {
	c := NewClient(host, broker, cfg)
	c.firstConnID = uint64(host.Now().UnixNano())
	if err := c.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

// Start is the whole boot: it binds the client's services, starts its
// receiver, and registers with the broker in one control RPC that also
// carries the initial load report. On failure it stops everything it
// started, so the node's endpoints are free for the next boot.
func (c *Client) Start() error {
	ctlEP, err := c.host.Endpoint(ServiceClient)
	if err != nil {
		return fmt.Errorf("overlay: client bind: %w", err)
	}
	xferEP, err := c.host.Endpoint(ServiceTransfer)
	if err != nil {
		return fmt.Errorf("overlay: transfer bind: %w", err)
	}
	opts := pipe.Options{FirstID: c.firstConnID}
	c.ctlMux = pipe.NewMux(c.host, ctlEP, opts)
	c.xferMux = pipe.NewMux(c.host, xferEP, opts)
	c.sender = transfer.NewSender(c.host, c.xferMux)
	transfer.NewReceiver(c.host, c.xferMux, transfer.ReceiverOptions{OnFile: c.cfg.OnFile})
	c.ctlMux.Serve(c.serveControl)
	if err := c.register(); err != nil {
		c.Stop()
		return err
	}
	if c.cfg.Resilient {
		// Seed the degraded-selection cache; each stats heartbeat
		// refreshes it. Best-effort: a boot racing a blackout still
		// succeeds once register did.
		_ = c.refreshDir()
	}
	return nil
}

// register announces this client to the broker — advertisement and current
// load in one frame. Boot and the re-registration after a broker restart
// (see SelectDetailed) both go through it.
func (c *Client) register() error {
	adv := jxta.Advertisement{
		Kind: jxta.AdvPeer,
		ID:   jxta.NewID("peer", c.host.Name()),
		Name: c.host.Name(),
		Addr: string(transport.MakeAddr(c.host.Name(), ServiceTransfer)),
	}
	adv = adv.WithAttr(jxta.AttrCPUScore, strconv.FormatFloat(c.cfg.CPUScore, 'f', -1, 64))
	reply, err := c.call(c.broker, wire.Frame(mtRegister, register{Adv: adv, Stats: c.currentStats()}.encodeTo))
	if err != nil {
		return err
	}
	kind, d, err := wire.Tag(reply)
	if err != nil || kind != mtRegisterAck {
		return fmt.Errorf("%w: register", ErrBadReply)
	}
	ack, err := decodeRegisterAck(d)
	if err != nil || !ack.OK {
		return ErrRegistrationRefused
	}
	return nil
}

// call performs one request/response exchange — under the resilience profile
// when the client is Resilient, else a single unbounded exchange on a fresh
// conn. Failures come back classified — see callRetried.
func (c *Client) call(to transport.Addr, payload []byte) ([]byte, error) {
	reply, _, err := c.callRetried(to, payload)
	return reply, err
}

// serveControl serves one inbound control conn (a task, an instant message).
func (c *Client) serveControl(conn pipe.Conn) {
	defer conn.Close()
	msg, err := conn.Recv()
	if err != nil {
		return
	}
	kind, d, err := wire.Tag(msg.Payload)
	if err != nil {
		return
	}
	switch kind {
	case mtTaskSubmit:
		sub, err := decodeTaskSubmit(d)
		if err != nil {
			return
		}
		c.msgsIn.Add(1)
		done := c.host.NewQueue()
		submitErr := c.executor().Submit(sub.Task, func(r task.Result) { done.Push(r) })
		dec := taskDecision{TaskID: sub.Task.ID, Accepted: submitErr == nil}
		if submitErr != nil {
			dec.Reason = submitErr.Error()
		}
		// Queue state changed: let the broker know, so scheduling-based
		// selection plans with a fresh ready-time estimate. Runs as its own
		// process so the task reply is not delayed.
		c.host.Go(func() { _ = c.ReportStats() }) // best-effort
		if err := conn.Send(wire.Frame(mtTaskDecision, dec.encodeTo)); err != nil || submitErr != nil {
			return
		}
		v, err := done.Pop()
		if err != nil {
			return
		}
		conn.Send(wire.Frame(mtTaskDone, taskDone{Result: v.(task.Result)}.encodeTo))
		c.host.Go(func() { _ = c.ReportStats() }) // best-effort
	case mtInstant:
		im, err := decodeInstant(d)
		if err != nil {
			return
		}
		c.msgsIn.Add(1)
		if c.cfg.OnInstant != nil {
			c.cfg.OnInstant(im.From, im.Text)
		}
		conn.Send(instantAckFrame)
	}
}

// ReportStats pushes the client's current load to the broker, after events
// that change it: there is no periodic timer, so simulations can quiesce.
func (c *Client) ReportStats() error {
	reply, err := c.call(c.broker, wire.Frame(mtStatsReport, c.currentStats().encodeTo))
	if err != nil {
		return err
	}
	if len(reply) == 0 || reply[0] != mtAck {
		return fmt.Errorf("%w: stats ack", ErrBadReply)
	}
	if c.cfg.Resilient {
		// The heartbeat doubles as the directory refresh keeping the
		// degraded-selection cache current.
		_ = c.refreshDir() // best-effort: the cache just stays stale
	}
	return nil
}

// executor returns the task executor, built on the first submission. A
// build that lost a race (realnet serves conns concurrently), or that
// followed Stop, is stopped at once.
func (c *Client) executor() *task.Executor {
	if c.exec.Load() == nil {
		e := task.NewExecutor(c.host, c.cfg.CPUScore)
		if !c.exec.CompareAndSwap(nil, e) || c.stopped.Load() {
			e.Stop()
		}
	}
	return c.exec.Load()
}

// currentStats snapshots the client's load as a stats report, consuming
// (swap-to-zero) the message counters exactly as the report on the wire
// would. A client not sent a task yet has no executor, and no task load.
func (c *Client) currentStats() statsReport {
	rep := statsReport{
		Peer:      c.host.Name(),
		InboxLen:  int(c.msgsIn.Swap(0)),
		OutboxLen: int(c.msgsOut.Swap(0)),
		CPUScore:  c.cfg.CPUScore,
	}
	if e := c.exec.Load(); e != nil {
		rep.QueueLen, rep.ReadyIn = e.QueueLen(), e.ReadyIn()
	}
	return rep
}

// refreshDir makes the broker's whole peer directory the client's cached
// directory, which degraded selection falls back to when the broker is gone.
func (c *Client) refreshDir() error {
	reply, err := c.call(c.broker, discoverFrame)
	if err != nil {
		return err
	}
	return c.res.setDir(reply)
}

// Discover queries the broker's directory for peer advertisements, leases as
// of its last merge (see Broker.Advertisements). The result is the client's
// cached directory after this refresh, so the returned slice is shared with
// the client and must only be read. A new reply replaces the cached
// directory; it never writes this one.
func (c *Client) Discover() ([]jxta.Advertisement, error) {
	if err := c.refreshDir(); err != nil {
		return nil, err
	}
	return c.res.snapshotDir(), nil
}

// Send transmits a file to the named peer in `parts` parts, filling m with
// the transfer's record, and reports the outcome to the broker.
func (c *Client) Send(peer string, f transfer.File, parts int, m *transfer.Metrics) error {
	return c.sendReported(peer, m, func(addr transport.Addr) error {
		return c.sender.Send(addr, f, parts, m)
	})
}

// SendFile is Send returning the record by value.
func (c *Client) SendFile(peer string, f transfer.File, parts int) (m transfer.Metrics, err error) {
	err = c.Send(peer, f, parts, &m)
	return m, err
}

// SendPieces is Send for the pieces of f named by indices (positions in the
// canonical pieces-way split), reported as a whole-file send is, so a
// downloader re-originating pieces is credited as their originator; Bytes
// counts only the pieces moved.
func (c *Client) SendPieces(peer string, f transfer.File, pieces int, indices []int, m *transfer.Metrics) error {
	return c.sendReported(peer, m, func(addr transport.Addr) error {
		return c.sender.SendPieces(addr, f, pieces, indices, m)
	})
}

// sendReported runs one transmission, filling m, to the peer's transfer
// address and reports the outcome to the broker; a part counts as a message
// out, confirmed or not. A send to an address no transport knows is not
// reported, here or in SubmitTask and SendInstant: a typo must not open a
// statistics record. Nor is a send that failed after the client's own Stop:
// it reads as the client stopped (pipe.ErrClosed, not transfer.ErrFailed),
// so no relaunch loop retries a departed source.
func (c *Client) sendReported(peer string, m *transfer.Metrics, send func(transport.Addr) error) error {
	sendErr := send(transport.MakeAddr(peer, ServiceTransfer))
	c.msgsOut.Add(int64(len(m.Parts) + 1))
	if errors.Is(sendErr, transport.ErrUnknownAddr) {
		return sendErr
	}
	if sendErr != nil && c.stopped.Load() {
		return fmt.Errorf("overlay: client stopped: %w", pipe.ErrClosed)
	}
	rep := reportTransfer{
		Peer:          peer,
		OK:            sendErr == nil,
		Cancelled:     sendErr != nil && !errors.Is(sendErr, transfer.ErrRejected),
		Bytes:         m.TotalBytes,
		Duration:      m.TransmissionTime(),
		PetitionDelay: m.PetitionDelay(),
	}
	_, _ = c.call(c.broker, wire.Frame(mtReportTransfer, rep.encodeTo)) // statistics are best-effort; the transfer outcome stands
	return sendErr
}

// ReportPieces publishes this peer's piece inventory and unchoke set into
// its broker advertisement, where the dissemination driver reads them back
// through Discover. Unlike the statistics reports it is not best-effort: a
// failure surfaces, and the driver treats the peer as silent this round.
func (c *Client) ReportPieces(have []int, unchoked []string) error {
	rep := pieceReport{Peer: c.host.Name(), Have: have, Unchoked: unchoked}
	reply, err := c.call(c.broker, wire.Frame(mtPieceReport, rep.encodeTo))
	if err != nil {
		return err
	}
	if len(reply) == 0 || reply[0] != mtAck {
		return fmt.Errorf("%w: piece report ack", ErrBadReply)
	}
	return nil
}

// SubmitTask sends a task to the named peer, waits for the result, and
// reports acceptance/execution statistics to the broker.
func (c *Client) SubmitTask(peer string, t task.Task) (task.Result, error) {
	if t.ID == 0 {
		t.ID = c.nextTaskID.Add(1)
	}
	conn, err := c.ctlMux.Dial(transport.MakeAddr(peer, ServiceClient))
	if err != nil {
		return task.Result{}, err
	}
	defer conn.Close()
	c.msgsOut.Add(1)
	if err := conn.Send(wire.Frame(mtTaskSubmit, taskSubmit{Task: t, From: c.host.Name()}.encodeTo)); err != nil {
		if !errors.Is(err, transport.ErrUnknownAddr) {
			c.reportTaskOutcome(peer, false, false, 0)
		}
		return task.Result{}, fmt.Errorf("overlay: submit to %s: %w", peer, err)
	}
	reply, err := conn.Recv()
	if err != nil {
		c.reportTaskOutcome(peer, false, false, 0)
		return task.Result{}, fmt.Errorf("overlay: decision from %s: %w", peer, err)
	}
	kind, d, err := wire.Tag(reply.Payload)
	if err != nil || kind != mtTaskDecision {
		return task.Result{}, fmt.Errorf("overlay: bad decision reply from %s", peer)
	}
	dec, err := decodeTaskDecision(d)
	if err != nil {
		return task.Result{}, err
	}
	if !dec.Accepted {
		c.reportTaskOutcome(peer, false, false, 0)
		return task.Result{}, fmt.Errorf("%w: %s", ErrTaskRejected, dec.Reason)
	}
	reply, err = conn.Recv()
	if err != nil {
		c.reportTaskOutcome(peer, true, false, 0)
		return task.Result{}, fmt.Errorf("overlay: result from %s: %w", peer, err)
	}
	kind, d, err = wire.Tag(reply.Payload)
	if err != nil || kind != mtTaskDone {
		return task.Result{}, fmt.Errorf("overlay: bad result reply from %s", peer)
	}
	doneMsg, err := decodeTaskDone(d)
	if err != nil {
		return task.Result{}, err
	}
	res := doneMsg.Result
	spu := 0.0
	if t.WorkUnits > 0 && res.Elapsed > 0 {
		spu = res.Elapsed.Seconds() / t.WorkUnits
	}
	c.reportTaskOutcome(peer, true, res.OK, spu)
	return res, nil
}

func (c *Client) reportTaskOutcome(peer string, accepted, ok bool, spu float64) {
	rep := reportTask{Peer: peer, Accepted: accepted, OK: ok, SecondsPerUnit: spu}
	_, _ = c.call(c.broker, wire.Frame(mtReportTask, rep.encodeTo)) // best-effort statistics
}

// SendInstant delivers a one-line message to the named peer and records the
// outcome in the broker's messaging statistics.
func (c *Client) SendInstant(peer, text string) error {
	c.msgsOut.Add(1)
	reply, sendErr := c.call(transport.MakeAddr(peer, ServiceClient), wire.Frame(mtInstant, instant{From: c.host.Name(), Text: text}.encodeTo))
	ok := sendErr == nil && len(reply) > 0 && reply[0] == mtInstantAck
	if !errors.Is(sendErr, transport.ErrUnknownAddr) {
		rep := reportMessage{Peer: peer, OK: ok}
		_, _ = c.call(c.broker, wire.Frame(mtReportMessage, rep.encodeTo)) // best-effort statistics
	}
	if !ok {
		if sendErr == nil {
			sendErr = fmt.Errorf("%w: instant ack", ErrBadReply)
		}
		return fmt.Errorf("overlay: instant to %s failed: %w", peer, sendErr)
	}
	return nil
}

// SelectPeers asks the broker's selection service to rank peers with the
// named model; preferred is the user's own ranking for the quick-peer model.
// Broker-side failures come back as ErrNoCandidates or ErrModelUnknown.
func (c *Client) SelectPeers(model string, req core.Request, max int, preferred []string) ([]string, error) {
	sel, err := c.SelectDetailed(model, req, max, preferred, nil)
	if err != nil {
		return nil, err
	}
	return sel.Peers, nil
}

// Name returns the client's node name — how the broker and other peers know
// it.
func (c *Client) Name() string { return c.host.Name() }

// Stop tears the client down.
func (c *Client) Stop() {
	c.stopped.Store(true)
	if e := c.exec.Load(); e != nil {
		e.Stop()
	}
	if c.ctlMux != nil {
		c.ctlMux.Close()
	}
	if c.xferMux != nil {
		c.xferMux.Close()
	}
}
