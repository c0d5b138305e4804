// Package pipe provides reliable, in-order, exactly-once message delivery on
// top of the unreliable datagram transport — the role JXTA's pipe service
// plays in the paper's platform.
//
// A Mux owns one transport endpoint and demultiplexes any number of Conns
// over it. Reliability is per *message*: a message is acknowledged as a unit
// and retransmitted as a unit, reproducing the property the paper's
// granularity experiment (Figure 5) depends on — losing a 100 Mb "whole
// file" message costs the whole 100 Mb again, while losing one of 16 parts
// costs 6.25 Mb.
//
// Senders adapt their retransmission timeout from measured round-trip times
// and service rates (Jacobson/Karn), with a conservative floor for messages
// larger than anything measured yet.
package pipe

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"time"

	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// Frame kinds.
const (
	kindData byte = 1
	kindAck  byte = 2
	kindFin  byte = 3
)

// debugDispatch, when set by tests, observes every dispatched frame.
var debugDispatch func(local string, kind byte, id, seq, ack uint64, size int)

// SetDebugDispatch installs a frame observer; for debugging only.
func SetDebugDispatch(fn func(local string, kind byte, id, seq, ack uint64, size int)) {
	debugDispatch = fn
}

// Errors returned by pipe operations. ErrTimeout is what every call on a conn
// whose deadline (CloseAfter) fired returns: the one way a pipe wait ends
// with a timeout.
var (
	ErrClosed  = errors.New("pipe: closed")
	ErrBroken  = errors.New("pipe: peer unreachable (retries exhausted)")
	ErrTimeout = errors.New("pipe: timeout")
)

// Options tunes a Mux and the Conns it creates.
type Options struct {
	// Window is the maximum number of unacknowledged messages per Conn.
	// The default 4 keeps concurrent senders on a high-latency path busy
	// (see BenchmarkAblationPipeWindow); 1 is stop-and-wait, the paper's
	// protocol (the transfer engine confirms each part itself regardless).
	Window int
	// FirstID offsets the mux's conn ids (they start at FirstID+1). A remote
	// mux tombstones the id of every conn it accepted and tore down, so a
	// late retransmit cannot resurrect it; a restarted mux must not reuse
	// its last incarnation's ids, or their messages drop as stale. Rebooted
	// clients derive FirstID from the boot instant (see overlay.BootPeer).
	FirstID uint64
	// Serve, if set, stands in for a process looping on Accept: it is handed
	// each accepted conn in accept order and returns the handler that the
	// conn's served inbox, which holds no process, runs on each event: the
	// messages in order, none while a Post is outstanding but its
	// completion, then once the conn's end (the peer's FIN, a break or the
	// deadline), and nothing after the handler's Close.
	Serve func(Conn) Handler
}

// MaxAttempts bounds transmission attempts per message.
const MaxAttempts = 8

// initialRTT seeds a conn's RTO estimator before any sample.
const initialRTT = 500 * time.Millisecond

// MinRate (bytes/second) lower-bounds the assumed service rate when sizing
// timeouts for messages before a rate has been measured: 100 KB/s, just below
// the slowest calibrated PlanetLab path. Higher causes spurious whole-message
// retransmissions on slow paths; lower makes loss recovery of large messages
// glacial. It is also the floor rate the transfer layer plans its waits on.
const MinRate = 100_000

// MaxRTO caps a single attempt's timeout: a whole 100 Mb message on a
// degraded PlanetLab path is legitimately slow.
const MaxRTO = 30 * time.Minute

// Message is one application message received from a Conn.
type Message struct {
	// Payload is the buffer the sender passed to Send, shared by reference
	// and read-only: the receiver may keep it but never writes it, and its
	// capacity is clipped to its length, so an append copies.
	Payload []byte
	// Size is the wire size of the message (>= len(Payload)); see
	// transport.Message.Size.
	Size int
}

// Event is one thing a served conn hands its handler (see Options.Serve).
type Event struct {
	Msg Message // the next message in order, unless Posted or Err is set
	// Posted reports the completion of the conn's outstanding Post: its
	// ack arrived, or, with Err, the conn broke or closed first.
	Posted bool
	// Err, when not Posted, is the conn's end: ErrClosed, ErrTimeout, or why
	// it broke.
	Err error
}

// Handler takes one served conn's events (see Options.Serve) in order. It
// may park (in Send, say), holding back the conn's later events meanwhile.
// A handler that keeps per-conn state is that state, one allocation.
type Handler interface{ Handle(Conn, Event) }

type connKey struct {
	peer transport.Addr
	id   uint64
	// theirs marks ids allocated by the remote side (accepted conns).
	theirs bool
}

// Mux demultiplexes reliable Conns over one endpoint.
type Mux struct {
	host transport.Host
	ep   transport.Endpoint
	opts Options

	mu       sync.Mutex
	conns    map[connKey]*conn          // made on the first conn
	dead     map[transport.Addr]idSpans // torn-down accepted conns, by remote
	nextID   uint64
	closed   bool
	accepts  transport.Queue // *conn
	flFree   *inflight       // recycled in-flight records, linked through next
	msgFree  []*Message      // recycled inbox records; see newMessage
	connFree []*conn         // recycled conns; see conn.leave
}

// NewMux wraps ep in a demultiplexer that serves the endpoint's queue.
func NewMux(h transport.Host, ep transport.Endpoint, opts Options) *Mux {
	if opts.Window <= 0 {
		opts.Window = 4
	}
	m := &Mux{host: h, ep: ep, opts: opts, nextID: opts.FirstID, accepts: h.NewQueue()}
	if opts.Serve != nil {
		m.accepts.Serve(serveConn)
	}
	ep.Serve(m.dispatch)
	return m
}

// Addr returns the underlying endpoint address.
func (m *Mux) Addr() transport.Addr { return m.ep.Addr() }

// Dial creates a Conn to the remote pipe endpoint. As with JXTA pipes there is
// no handshake: the remote Mux makes the conn when its first message arrives.
func (m *Mux) Dial(remote transport.Addr) (Conn, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return Conn{}, ErrClosed
	}
	m.nextID++
	c := m.newConnLocked(remote, m.nextID, false)
	return Conn{c, c.gen}, nil
}

// Accept blocks until a remote peer dials in.
func (m *Mux) Accept() (Conn, error) {
	v, err := m.accepts.Pop()
	if err != nil {
		return Conn{}, ErrClosed
	}
	c := v.(*conn) // held by its owner: its generation stays put
	return Conn{c, c.gen}, nil
}

// serveConn is a serving mux's accept queue consumer: it hands an accepted
// conn to Options.Serve and serves its inbox.
func serveConn(v any) {
	c := v.(*conn) // held by its owner: its generation stays put
	h := c.mux.opts.Serve(Conn{c, c.gen})
	c.mu.Lock()
	c.handler = h
	if c.drain == nil {
		c.drain = c.serveNext
	}
	c.mu.Unlock()
	c.inbox.Serve(c.drain)
}

// Close tears down the mux, every conn, and the endpoint. Conns go down in
// (peer, theirs, id) order, so the processes they wake run in a fixed order.
func (m *Mux) Close() error {
	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return nil
	}
	m.closed = true
	conns := make([]*conn, 0, len(m.conns))
	for _, c := range m.conns {
		conns = append(conns, c)
	}
	m.mu.Unlock()
	sort.Slice(conns, func(i, j int) bool {
		a, b := conns[i], conns[j]
		if a.peer != b.peer {
			return a.peer < b.peer
		}
		if a.theirs != b.theirs {
			return !a.theirs
		}
		return a.id < b.id
	})
	for _, c := range conns {
		c.teardown(ErrClosed, false)
	}
	m.accepts.Close()
	return m.ep.Close()
}

// newConnLocked registers a fresh incarnation of a conn, recycled if the mux
// has one, holding the table's hold and the owner's. Its reorder buffer and
// window wait queue are made on first need, so a request/response conn
// allocates nothing on a warm mux. Caller holds m.mu.
func (m *Mux) newConnLocked(peer transport.Addr, id uint64, theirs bool) *conn {
	var c *conn
	if n := len(m.connFree); n > 0 {
		c, m.connFree = m.connFree[n-1], m.connFree[:n-1]
		c.inbox.Reopen()
	} else {
		c = &conn{mux: m, inbox: m.host.NewQueue()}
	}
	c.holds = 2
	c.connState = connState{peer: peer, id: id, theirs: theirs, served: theirs && m.opts.Serve != nil,
		tokAvail: m.opts.Window, recvNext: 1, srtt: initialRTT, rttvar: initialRTT / 2}
	if m.conns == nil {
		m.conns = make(map[connKey]*conn)
	}
	m.conns[connKey{peer, id, theirs}] = c
	return c
}

func (m *Mux) dispatch(msg transport.Message) {
	d := wire.NewDecoder(msg.Payload)
	kind := d.Byte()
	dirTheirs := d.Bool() // true: pipeID allocated by the frame's sender
	id := d.Uint64()
	seq := d.Uint64()
	ack := d.Uint64()
	if n := d.Uint64(); d.Finish() != nil || n != uint64(len(msg.Body)) {
		return // corrupt frame: drop, sender will retransmit
	}
	payload := slices.Clip(msg.Body) // shared: an append must copy
	// The head is the frame's header; subtracting it recovers the app size.
	appSize := max(msg.Size-len(msg.Payload), len(payload))

	// A frame whose id was allocated by its sender lands in our "theirs"
	// space, and vice versa.
	key := connKey{msg.From, id, dirTheirs}

	m.mu.Lock()
	if m.closed {
		m.mu.Unlock()
		return
	}
	c, ok := m.conns[key]
	if !ok {
		if kind != kindData || !dirTheirs || m.dead[msg.From].has(id) {
			m.mu.Unlock() // stale: an ack or FIN for no conn, or data for a closed one
			return
		}
		c = m.newConnLocked(msg.From, id, true)
		m.accepts.Push(c)
	}
	h := Conn{c, c.gen}
	m.mu.Unlock()
	if c = h.enter(); c == nil {
		return // the conn was recycled since: the frame is stale
	}
	defer c.leave()

	if debugDispatch != nil {
		debugDispatch(string(m.ep.Addr()), kind, id, seq, ack, appSize)
	}
	switch kind {
	case kindData:
		c.handleData(seq, payload, appSize)
	case kindAck:
		c.handleAck(ack)
	case kindFin:
		c.handleFin(seq)
	}
}

// sendFrame encodes one frame's header into a pooled encoder, which the
// network copies before SendFrame returns, and sends the payload behind it by
// reference. size is the app-level wire size; the header is added on top.
func (m *Mux) sendFrame(peer transport.Addr, kind byte, dirTheirs bool, id, seq, ack uint64, payload []byte, size int) error {
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.Byte(kind)
	e.Bool(dirTheirs)
	e.Uint64(id)
	e.Uint64(seq)
	e.Uint64(ack)
	e.Uint64(uint64(len(payload)))
	return m.ep.SendFrame(peer, e.Bytes(), payload, e.Len()+size)
}

// inflight is one message awaiting its ack. Its timer, kept through
// recycling, retransmits it. Once unlisted it is done, err the completion's,
// and it completes once no attempt is sending and no firing pending: a
// Send's on released, where its caller waits, a Post's on the conn's inbox.
// Whoever takes the completion recycles it.
type inflight struct {
	conn     *conn
	released transport.Queue
	next     *inflight // the conn's in-flight list, or the mux's free list
	seq      uint64
	payload  []byte
	size     int
	attempt  int       // transmissions so far, less one
	txStart  time.Time // when the latest left
	timer    transport.Timer
	err      error // this and the flags are under the conn's mu

	posted, sending, armed, done bool
}

// Conn is a handle on one reliable bidirectional pipe between two endpoints:
// a small value naming one incarnation of a conn its mux recycles. Its owner
// — the dialer, or the handler an accepted conn is handed to — ends its use
// with one Close. Once the conn is torn down and holds no unread message, the
// mux may reuse it for a later conn; an older handle then reads as a closed
// conn: Send and Recv return ErrClosed and Close does nothing.
type Conn struct {
	c   *conn
	gen uint64
}

// conn is what a Conn handle names. Every call through a handle, every
// dispatched frame and an armed deadline hold it, as do the mux table until
// the conn is unregistered and the owner until its Close; the last hold to
// go recycles the conn onto its mux's free list (see leave).
type conn struct {
	mux   *Mux
	inbox transport.Queue // *Message records from the mux, delivered in order
	// Made once per conn object, not per incarnation.
	drain    func(any)
	deadline transport.Timer
	held     []any // a served conn's values waiting out a Post; see serveNext

	mu    sync.Mutex
	gen   uint64 // bumped on recycling, under mu and the mux's mu
	holds int
	connState
}

// connState is one incarnation of a conn, reset in one assignment on reuse.
// All but the addressing fields sit under the conn's mu.
type connState struct {
	peer   transport.Addr
	id     uint64
	theirs bool
	// A served conn's values each hold it until handed (see deliverLocked).
	served   bool
	ended    bool // a served conn's end notice is queued
	handler  Handler
	posts    int
	sendNext uint64 // next seq to allocate (first is 1)
	// In-flight sends, linked in seq order: a send joins the tail as it
	// takes its seq, an ack releases a prefix and teardown the whole list.
	flHead, flTail *inflight
	// Send window: tokAvail counts free slots, tokWaiting the senders
	// parked (or committed to park) in tokWait, made on first contention.
	tokAvail   int
	tokWaiting int
	tokWait    transport.Queue
	recvNext   uint64             // next in-order seq expected
	recvBuf    map[uint64]Message // reorder buffer, allocated on first gap
	finSeq     uint64             // seq carried by a FIN we received, 0 if none
	broken     error              // why a torn-down conn failed: a break or ErrTimeout
	closed     bool               // torn down
	released   bool               // the owner's Close ran
	dlArmed    bool               // the deadline is armed or firing, and holds the conn
	srtt       time.Duration
	rttvar     time.Duration
	rate       float64 // measured service rate, bytes/sec; 0 = no sample yet
	retxCount  int64   // cumulative retransmissions (observability)
}

// enter takes a call's hold on h's conn, or returns nil if the conn was
// recycled since h was made.
func (h Conn) enter() *conn { return peek(h, func(c *conn) *conn { c.holds++; return c }) }

// leave drops a hold. The last one recycles the conn, unless its inbox
// holds messages an owner may still read after Close: the Recv that takes
// the last of them recycles it instead. Lock order: conn, then mux.
func (c *conn) leave() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.holds--; c.holds > 0 || c.inbox.Len() > 0 {
		return
	}
	c.inbox.Close() // a served inbox's first Close
	c.mux.mu.Lock()
	c.gen++
	c.mux.connFree = append(c.mux.connFree, c)
	c.mux.mu.Unlock()
}

// peek reads f of h's conn under its lock, or the zero value if h is stale.
func peek[T any](h Conn, f func(*conn) T) (v T) {
	h.c.mu.Lock()
	defer h.c.mu.Unlock()
	if h.c.gen == h.gen {
		v = f(h.c)
	}
	return v
}

// Remote returns the peer address.
func (h Conn) Remote() transport.Addr { return peek(h, func(c *conn) transport.Addr { return c.peer }) }

// Retransmissions reports how many retransmission attempts this conn made.
func (h Conn) Retransmissions() int64 { return peek(h, func(c *conn) int64 { return c.retxCount }) }

// Send transmits payload reliably, blocking until the peer acknowledges it or
// the conn ends; the record's timer retransmits meanwhile, as for a Post.
// The caller gives payload up, as to transport.Endpoint.Send: receivers keep
// the buffer itself, so the caller must not write it afterwards. One buffer
// may be sent on any number of conns.
func (h Conn) Send(payload []byte) error { return h.SendSized(payload, len(payload)) }

// SendSized is Send with an explicit wire size (see transport.Message.Size).
func (h Conn) SendSized(payload []byte, size int) error {
	c := h.enter()
	if c == nil {
		return ErrClosed
	}
	defer c.leave()
	if err := c.acquireToken(); err != nil {
		return c.closedErr()
	}
	defer c.releaseToken()
	fl, err := c.send(payload, size, false)
	if err != nil {
		return err
	}
	fl.released.Pop()
	return c.complete(fl)
}

// Post transmits payload reliably as Send does, on a served conn (see
// Options.Serve), without waiting: its completion — the ack, or the break or
// close that came first — reaches the conn's handler as a Posted event, and
// until then the handler is handed nothing else. Post takes no window slot.
func (h Conn) Post(payload []byte) error {
	if c := h.enter(); c != nil {
		defer c.leave()
		_, err := c.send(payload, len(payload), true)
		return err
	}
	return ErrClosed
}

// send gives payload the next seq, joins its record to the tail of the
// in-flight list and makes the first attempt.
func (c *conn) send(payload []byte, size int, posted bool) (*inflight, error) {
	c.mu.Lock()
	if posted && !c.served {
		c.mu.Unlock()
		panic("pipe: Post on a conn that is not served")
	}
	if c.closed { // a conn is broken only as it is torn down
		c.mu.Unlock()
		return nil, c.closedErr()
	}
	c.sendNext++
	fl := c.mux.takeInflight()
	fl.conn, fl.seq, fl.payload, fl.size = c, c.sendNext, payload, max(size, len(payload))
	fl.posted, fl.sending = posted, true
	if c.flTail == nil {
		c.flHead = fl
	} else {
		c.flTail.next = fl
	}
	c.flTail = fl
	if posted {
		c.posts++
		c.holds++ // the completion's, until it is handed
	}
	c.mu.Unlock()
	c.attempt(fl)
	return fl, nil
}

// attempt puts fl's frame on the wire; then fl completes if released
// meanwhile, or its timer is armed for the RTO, backed off exponentially.
func (c *conn) attempt(fl *inflight) {
	rto := min(c.rtoFor(fl.size)<<uint(fl.attempt), MaxRTO)
	now := c.mux.host.Now()
	c.mu.Lock()
	fl.txStart = now
	c.mu.Unlock()
	err := c.mux.sendFrame(c.peer, kindData, !c.theirs, c.id, fl.seq, 0, fl.payload, fl.size)
	if err != nil { // a transport-level refusal (unknown node) is not retryable
		c.teardown(fmt.Errorf("%w: %w", ErrBroken, err), true)
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if err == nil && fl.attempt > 0 {
		c.retxCount++
	}
	switch fl.sending = false; {
	case fl.done:
		c.handCompletionLocked(fl)
	case fl.timer == nil:
		fl.armed, fl.timer = true, c.mux.host.AfterFunc(rto, fl.retransmit)
	default:
		fl.armed = true
		fl.timer.Reset(rto)
	}
}

// retransmit is fl's timer firing: the next attempt, or, after MaxAttempts,
// the conn's break, unless fl completed meanwhile.
func (fl *inflight) retransmit() {
	c := fl.conn
	c.mu.Lock()
	if fl.armed = false; fl.done {
		c.handCompletionLocked(fl)
		c.mu.Unlock()
		return
	}
	fl.attempt++
	fl.sending = fl.attempt < MaxAttempts
	c.holds++ // fl is listed, so the conn is live
	c.mu.Unlock()
	if fl.sending {
		c.attempt(fl)
	} else {
		c.teardown(ErrBroken, true)
	}
	c.leave()
}

// handCompletionLocked hands done fl's completion to its taker: a Send's
// caller, parked on released, or a Post's handler, through the inbox. Caller
// holds c.mu.
func (c *conn) handCompletionLocked(fl *inflight) {
	if fl.posted {
		c.inbox.Push(fl) // the Post's hold is the value's
	} else {
		fl.released.Push(fl)
	}
}

// complete takes fl's completion and recycles fl, keeping what it makes
// once. Karn's rule feeds the estimators only an ack of a first
// transmission, the one unambiguous sample.
func (c *conn) complete(fl *inflight) error {
	c.mu.Lock()
	err, sample := fl.err, c.mux.host.Now().Sub(fl.txStart)
	if err == nil && fl.attempt == 0 {
		c.observeLocked(sample, fl.size)
	}
	c.mu.Unlock()
	c.mux.mu.Lock()
	*fl = inflight{released: fl.released, timer: fl.timer, next: c.mux.flFree}
	c.mux.flFree = fl
	c.mux.mu.Unlock()
	return err
}

// takeInflight pops a recycled in-flight record, or makes one.
func (m *Mux) takeInflight() *inflight {
	m.mu.Lock()
	defer m.mu.Unlock()
	fl := m.flFree
	if fl == nil {
		return &inflight{released: m.host.NewQueue()}
	}
	m.flFree, fl.next = fl.next, nil
	return fl
}

// newMessage fills a recycled inbox record, or makes one. The conn's receiver
// copies the message out and recycles the record (takeMessage). Callers may
// hold a conn's mu: conn locks come before the mux's.
func (m *Mux) newMessage(payload []byte, size int) *Message {
	m.mu.Lock()
	defer m.mu.Unlock()
	n := len(m.msgFree)
	if n == 0 {
		return &Message{Payload: payload, Size: size}
	}
	rec := m.msgFree[n-1]
	m.msgFree = m.msgFree[:n-1]
	*rec = Message{Payload: payload, Size: size}
	return rec
}

// takeMessage copies a message out of the inbox record v and recycles the
// record, emptied.
func (m *Mux) takeMessage(v any) Message {
	rec := v.(*Message)
	msg := *rec
	*rec = Message{}
	m.mu.Lock()
	m.msgFree = append(m.msgFree, rec)
	m.mu.Unlock()
	return msg
}

// acquireToken claims a send-window slot, parking the caller when the
// window is full. A closed conn with free slots still grants one, and
// sendSized's closed check rejects the send.
func (c *conn) acquireToken() error {
	c.mu.Lock()
	if c.tokAvail > 0 {
		c.tokAvail--
		c.mu.Unlock()
		return nil
	}
	if c.closed {
		c.mu.Unlock()
		return transport.ErrClosed
	}
	if c.tokWait == nil {
		c.tokWait = c.mux.host.NewQueue()
	}
	c.tokWaiting++
	w := c.tokWait
	c.mu.Unlock()
	_, err := w.Pop()
	return err
}

// releaseToken frees a window slot, handing it to the oldest parked sender
// if any. Under real concurrency a slot pushed before its waiter parks waits
// in tokWait for it; simulated dispatch parks the waiter first.
func (c *conn) releaseToken() {
	c.mu.Lock()
	if c.tokWaiting > 0 {
		c.tokWaiting--
		w := c.tokWait
		c.mu.Unlock()
		_ = w.Push(struct{}{})
		return
	}
	c.tokAvail++
	c.mu.Unlock()
}

// rtoFor sizes one attempt's timeout: the RTT estimate plus twice the
// serialization time at the measured (or floor) service rate.
func (c *conn) rtoFor(size int) time.Duration {
	c.mu.Lock()
	defer c.mu.Unlock()
	rate := c.rate
	if rate <= 0 {
		rate = MinRate
	}
	tx := time.Duration(float64(size) / rate * float64(time.Second))
	return min(c.srtt+4*c.rttvar+2*tx, MaxRTO)
}

// observeLocked folds an ack round-trip sample into the RTT and rate
// estimators. Caller holds c.mu.
func (c *conn) observeLocked(sample time.Duration, size int) {
	if sample <= 0 {
		return
	}
	diff := max(sample-c.srtt, c.srtt-sample)
	c.rttvar = (3*c.rttvar + diff) / 4
	c.srtt = (7*c.srtt + sample) / 8
	if size >= 4096 {
		r := float64(size) / sample.Seconds()
		if c.rate == 0 {
			c.rate = r
		} else {
			c.rate = 0.7*c.rate + 0.3*r
		}
	}
}

// Recv blocks until the next in-order message arrives or the conn ends; a
// wait with a deadline is a Recv under CloseAfter.
func (h Conn) Recv() (Message, error) {
	c := h.enter()
	if c == nil {
		return Message{}, ErrClosed
	}
	defer c.leave()
	v, err := c.inbox.Pop()
	if err != nil {
		return Message{}, c.closedErr()
	}
	return c.mux.takeMessage(v), nil
}

// closedErr is what a call on a torn-down conn, or a Recv past the peer's
// FIN, reports: why the conn broke, ErrTimeout if its deadline fired, or
// ErrClosed.
func (c *conn) closedErr() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.broken != nil {
		return c.broken
	}
	return ErrClosed
}

// handleData processes an inbound DATA frame: deliver in order, buffer ahead
// of order, re-acknowledge duplicates.
func (c *conn) handleData(seq uint64, payload []byte, size int) {
	c.mu.Lock()
	switch {
	case seq == c.recvNext:
		c.deliverLocked(c.mux.newMessage(payload, size))
		c.recvNext++
	case seq > c.recvNext: // a retransmit of a buffered seq carries the same message
		if c.recvBuf == nil {
			c.recvBuf = make(map[uint64]Message)
		}
		c.recvBuf[seq] = Message{Payload: payload, Size: size}
	}
	for m, ok := c.recvBuf[c.recvNext]; ok; m, ok = c.recvBuf[c.recvNext] {
		delete(c.recvBuf, c.recvNext)
		c.deliverLocked(c.mux.newMessage(m.Payload, m.Size))
		c.recvNext++
	}
	if c.finSeq != 0 && c.recvNext >= c.finSeq {
		c.endLocked()
	}
	ackThrough := c.recvNext - 1
	c.mu.Unlock()
	// Cumulative ack (covers duplicates too).
	c.mux.sendFrame(c.peer, kindAck, !c.theirs, c.id, 0, ackThrough, nil, 0)
}

// handleAck releases the in-flight messages at or below ack — a prefix of
// the list — in ascending seq.
func (c *conn) handleAck(ack uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	head := c.flHead
	var last *inflight
	for fl := head; fl != nil && fl.seq <= ack; fl = fl.next {
		last = fl
	}
	if last == nil {
		return
	}
	if c.flHead = last.next; c.flHead == nil {
		c.flTail = nil
	}
	last.next = nil
	c.releaseLocked(head, nil)
}

// releaseLocked completes the unlisted records from fl on, oldest first,
// with err, except those an attempt or a firing will. Caller holds c.mu.
func (c *conn) releaseLocked(fl *inflight, err error) {
	for fl != nil {
		next := fl.next // read first: once completed, fl belongs to its taker
		fl.next, fl.done, fl.err = nil, true, err
		switch {
		case fl.armed && !fl.timer.Stop(), fl.sending: // the firing or the attempt completes it
		default:
			fl.armed = false
			c.handCompletionLocked(fl)
		}
		fl = next
	}
}

// handleFin records the peer's final seq and ends the inbox once everything
// before it was delivered.
func (c *conn) handleFin(finSeq uint64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finSeq = finSeq
	if c.recvNext >= finSeq {
		c.endLocked()
	}
}

// deliverLocked queues v on the inbox. On a served conn v holds the conn
// until handed, nothing follows the end notice, and while a Post is out v
// waits beside an idle inbox: the completion wakes it, where a Send's caller
// would wake. Caller holds c.mu.
func (c *conn) deliverLocked(v any) {
	switch {
	case !c.served:
		c.inbox.Push(v)
	case c.ended: // a late frame
	case c.posts > 0 && c.inbox.Len() == 0:
		c.holds++
		c.held = append(c.held, v)
	default:
		c.holds++
		c.inbox.Push(v)
	}
}

// connEnd tells a served conn's handler that the conn ended.
type connEnd struct{}

// endLocked ends what the conn delivers: an unserved conn's inbox closes, a
// served one's handler gets the end notice once (its inbox closes as the
// conn recycles). Caller holds c.mu.
func (c *conn) endLocked() {
	if !c.served {
		c.inbox.Close()
	} else if !c.ended {
		c.deliverLocked(connEnd{})
		c.ended = true
	}
}

// serveNext is a served inbox's consumer. A Post's completion is handed
// first, anything else in order while no Post is outstanding; once the
// owner closed the conn, values are dropped unhanded.
func (c *conn) serveNext(v any) {
	c.mu.Lock()
	c.holds++ // the turn's: nothing it hands may recycle the conn under it
	if _, done := v.(*inflight); done {
		c.held = slices.Insert(c.held, 0, v)
	} else {
		c.held = append(c.held, v)
	}
	for len(c.held) > 0 {
		v = c.held[0]
		fl, done := v.(*inflight)
		if !done && c.posts > 0 {
			break
		}
		c.held = append(c.held[:0], c.held[1:]...)
		if done {
			c.posts--
		}
		h, owned := Conn{c, c.gen}, !c.released
		c.mu.Unlock()
		ev := Event{Posted: done}
		if m, ok := v.(*Message); ok {
			ev.Msg = c.mux.takeMessage(m)
		} else if done {
			ev.Err = c.complete(fl)
		} else {
			ev.Err = c.closedErr()
		}
		if owned {
			c.handler.Handle(h, ev)
		}
		c.leave() // the value's hold
		c.mu.Lock()
	}
	c.mu.Unlock()
	c.leave()
}

// Close ends the owner's use of the conn: it stops the deadline, then, unless
// the conn is torn down already, sends a best-effort FIN and tears it down.
// Blocked Sends and Recvs return ErrClosed, and so do later Sends; messages
// buffered before Close stay readable. Only the owner's first Close acts.
func (h Conn) Close() error {
	c := h.enter()
	if c == nil {
		return nil
	}
	defer c.leave()
	c.mu.Lock()
	owner := !c.released
	if c.released = true; owner {
		c.stopDeadlineLocked()
	}
	c.mu.Unlock()
	if owner {
		c.leave() // the owner's hold; the call's outlives it
		c.fin(ErrClosed)
	}
	return nil
}

// CloseAfter arms the conn's deadline d from now, replacing one armed
// before; a negative d only disarms it. It is how any wait on a conn gets a
// deadline: unless disarmed first, the deadline sends a FIN and tears the
// conn down as Close would, but every call on the conn, pending or later,
// returns ErrTimeout. Its owner still ends its use with Close.
func (h Conn) CloseAfter(d time.Duration) {
	c := h.enter()
	if c == nil {
		return
	}
	defer c.leave()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.stopDeadlineLocked(); c.dlArmed || c.closed || d < 0 {
		return // still armed: it fired, and tears down
	}
	c.holds++ // the deadline's: a Stop or the firing drops it
	c.dlArmed = true
	if c.deadline == nil {
		c.deadline = c.mux.host.AfterFunc(d, c.deadlineFired)
	} else {
		c.deadline.Reset(d)
	}
}

// stopDeadlineLocked disarms a deadline that has not fired, dropping its
// hold. Caller holds c.mu and a hold of its own.
func (c *conn) stopDeadlineLocked() {
	if c.dlArmed && c.deadline.Stop() {
		c.dlArmed = false
		c.holds--
	}
}

// deadlineFired is the deadline's callback.
func (c *conn) deadlineFired() {
	c.mu.Lock()
	c.dlArmed = false
	c.mu.Unlock()
	c.fin(ErrTimeout)
	c.leave()
}

// fin sends a FIN and tears the conn down with err, unless it is torn down
// already.
func (c *conn) fin(err error) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	finSeq := c.sendNext + 1
	c.mu.Unlock()
	// Best-effort: a lost FIN leaves the remote conn to be torn down by its
	// owner; data integrity never depends on FIN delivery.
	c.mux.sendFrame(c.peer, kindFin, !c.theirs, c.id, finSeq, 0, nil, 0)
	c.teardown(err, true)
}

// teardown closes the conn, broken by err unless err is ErrClosed: it
// completes the in-flight messages, ends the queues and, if asked,
// unregisters from the mux, dropping the table's hold. Its caller holds the
// conn too.
func (c *conn) teardown(err error, unregister bool) {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	if err != ErrClosed {
		c.broken = err
	}
	c.releaseLocked(c.flHead, err)
	c.flHead, c.flTail = nil, nil
	if c.tokWait != nil {
		c.tokWait.Close()
	}
	c.endLocked()
	c.mu.Unlock()

	if unregister {
		m := c.mux
		m.mu.Lock()
		delete(m.conns, connKey{c.peer, c.id, c.theirs})
		if c.theirs { // dispatch reads tombstones for accepted conns only
			if m.dead == nil {
				m.dead = make(map[transport.Addr]idSpans)
			}
			ids := m.dead[c.peer]
			ids.add(c.id)
			m.dead[c.peer] = ids
		}
		m.mu.Unlock()
		c.leave()
	}
}

// idSpans is a set of conn ids as sorted, disjoint, non-adjacent spans; the
// zero value is empty. A dialer allocates ids in order, so a remote's
// torn-down conns mostly form one span, held inline; a second spills all.
type idSpans struct {
	one  span
	more []span
}

// span is the n ids from lo.
type span struct{ lo, n uint64 }

func (p span) has(id uint64) bool { return id-p.lo < p.n }

func (s idSpans) has(id uint64) bool {
	i := sort.Search(len(s.more), func(i int) bool { return s.more[i].lo+s.more[i].n-1 >= id })
	return s.more == nil && s.one.has(id) || i < len(s.more) && s.more[i].has(id)
}

// add puts id in the set, merging the spans it joins.
func (s *idSpans) add(id uint64) {
	if s.more == nil {
		if s.one.extend(id) {
			return
		}
		s.more = []span{s.one}
	}
	sp := s.more
	i := sort.Search(len(sp), func(i int) bool { return sp[i].lo+sp[i].n-1 >= id })
	switch {
	case i > 0 && sp[i-1].extend(id): // id ends sp[i-1] now: maybe next to sp[i]
		if i < len(sp) && sp[i].lo-id == 1 {
			sp[i-1].n += sp[i].n
			s.more = slices.Delete(sp, i, i+1)
		}
	case i < len(sp) && sp[i].extend(id):
	default:
		s.more = slices.Insert(sp, i, span{id, 1})
	}
}

// extend grows p by id if p is empty or id is in it or next to it.
func (p *span) extend(id uint64) bool {
	switch {
	case p.n == 0:
		p.lo, p.n = id, 1
	case p.has(id):
	case id-p.lo == p.n:
		p.n++
	case p.lo-id == 1:
		p.lo, p.n = id, p.n+1
	default:
		return false
	}
	return true
}
