// Package realnet implements the transport interfaces over real TCP
// sockets and wall-clock time. The same overlay stack that runs on the
// simulator (internal/simnet) runs here unchanged: cmd/broker and cmd/peer
// are realnet deployments, and the integration tests in this package prove
// the protocol end to end over the loopback interface.
//
// Peer naming is static: every host is constructed with a table mapping
// node names to TCP addresses (the experiments' PlanetLab slice was a
// static membership list too). One TCP connection is maintained per
// destination node and multiplexes all services; each datagram is a
// length-prefixed frame carrying from/to addresses, the declared wire
// size, and the message's head and body as two length-prefixed fields.
package realnet

import (
	"errors"
	"fmt"
	"math/rand"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// Host is one realnet node. It implements transport.Host.
type Host struct {
	name     string
	listener net.Listener
	table    map[string]string // node name -> TCP address
	rng      *rand.Rand

	mu       sync.Mutex
	services map[string]*endpoint
	outbound map[string]net.Conn // destination node -> conn
	closed   bool
}

var _ transport.Host = (*Host)(nil)

// NewHost binds a TCP listener at listenAddr (e.g. "127.0.0.1:0") and
// starts accepting. The table maps every reachable node name (including
// this one) to its address; AddrOf reports the actually-bound address so
// tables can be completed after binding ephemeral ports.
func NewHost(name, listenAddr string, table map[string]string, seed int64) (*Host, error) {
	ln, err := net.Listen("tcp", listenAddr)
	if err != nil {
		return nil, fmt.Errorf("realnet: listen: %w", err)
	}
	h := &Host{
		name:     name,
		listener: ln,
		table:    make(map[string]string, len(table)),
		rng:      transport.NewRand(seed),
		services: make(map[string]*endpoint),
		outbound: make(map[string]net.Conn),
	}
	for k, v := range table {
		h.table[k] = v
	}
	go h.acceptLoop()
	return h, nil
}

// AddrOf returns the listener's concrete address.
func (h *Host) AddrOf() string { return h.listener.Addr().String() }

// SetRoute adds or updates a node's TCP address.
func (h *Host) SetRoute(node, addr string) {
	h.mu.Lock()
	defer h.mu.Unlock()
	h.table[node] = addr
}

// Close shuts the host down: listener, inbound conns, all endpoints.
func (h *Host) Close() error {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil
	}
	h.closed = true
	eps := make([]*endpoint, 0, len(h.services))
	for _, ep := range h.services {
		eps = append(eps, ep)
	}
	conns := make([]net.Conn, 0, len(h.outbound))
	for _, c := range h.outbound {
		conns = append(conns, c)
	}
	h.mu.Unlock()
	for _, ep := range eps {
		ep.queue.Close()
	}
	for _, c := range conns {
		c.Close()
	}
	return h.listener.Close()
}

// Name implements transport.Host.
func (h *Host) Name() string { return h.name }

// Go implements transport.Host: on real time, processes are plain
// goroutines.
func (h *Host) Go(fn func()) { go fn() }

// Now implements transport.Host.
func (h *Host) Now() time.Time { return time.Now() }

// Sleep implements transport.Host.
func (h *Host) Sleep(d time.Duration) { time.Sleep(d) }

// AfterFunc implements transport.Host.
func (h *Host) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return time.AfterFunc(d, fn)
}

// Rand implements transport.Host.
func (h *Host) Rand() *rand.Rand { return h.rng }

// NewQueue implements transport.Host with a cond-based FIFO.
func (h *Host) NewQueue() transport.Queue { return newQueue() }

// Endpoint implements transport.Host.
func (h *Host) Endpoint(service string) (transport.Endpoint, error) {
	if service == "" {
		return nil, errors.New("realnet: empty service name")
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.closed {
		return nil, transport.ErrClosed
	}
	if _, dup := h.services[service]; dup {
		return nil, fmt.Errorf("realnet: service %q already bound on %q", service, h.name)
	}
	ep := &endpoint{
		host:  h,
		addr:  transport.MakeAddr(h.name, service),
		queue: newQueue(),
	}
	h.services[service] = ep
	return ep, nil
}

// acceptLoop serves inbound TCP conns; each runs a frame reader.
func (h *Host) acceptLoop() {
	for {
		conn, err := h.listener.Accept()
		if err != nil {
			return
		}
		go h.readLoop(conn)
	}
}

// readLoop decodes frames from one TCP conn into service queues.
func (h *Host) readLoop(conn net.Conn) {
	defer h.forgetConn(conn)
	for {
		frame, err := wire.ReadFrame(conn)
		if err != nil {
			return
		}
		d := wire.NewDecoder(frame)
		from := transport.Addr(d.StringField())
		to := transport.Addr(d.StringField())
		size := d.Int()
		// Both alias the frame, which is this message's alone; the head is
		// clipped so that an append to it cannot write the body.
		head := slices.Clip(d.BytesField())
		body := d.BytesField()
		if d.Finish() != nil {
			continue // corrupt frame; drop like a damaged datagram
		}
		h.learnConn(from.Node(), conn)
		h.mu.Lock()
		ep := h.services[to.Service()]
		h.mu.Unlock()
		if ep == nil {
			continue // unbound service: silent drop, like simnet
		}
		ep.queue.Push(transport.Message{From: from, Payload: head, Body: body, Size: size})
	}
}

// learnConn registers an inbound conn as the return route to its sender, so
// replies flow back over the socket the request arrived on. This is how
// cmd/broker answers peers it has no table entry for: peers dial in from
// arbitrary addresses and the broker learns each return path from the first
// frame. A statically routed or already-connected node keeps its existing
// conn — learning only fills gaps, it never replaces.
func (h *Host) learnConn(node string, c net.Conn) {
	if node == "" || node == h.name {
		return
	}
	h.mu.Lock()
	if _, ok := h.outbound[node]; !ok && !h.closed {
		h.outbound[node] = c
	}
	h.mu.Unlock()
}

// forgetConn closes a conn whose read loop ended and drops any return
// routes learned through it, so a reconnecting peer gets a fresh path
// instead of sends silently dying on the dead socket.
func (h *Host) forgetConn(c net.Conn) {
	h.mu.Lock()
	for n, oc := range h.outbound {
		if oc == c {
			delete(h.outbound, n)
		}
	}
	h.mu.Unlock()
	c.Close()
}

// dial returns (creating if needed) the outbound conn to a node.
func (h *Host) dial(node string) (net.Conn, error) {
	h.mu.Lock()
	if h.closed {
		h.mu.Unlock()
		return nil, transport.ErrClosed
	}
	if c, ok := h.outbound[node]; ok {
		h.mu.Unlock()
		return c, nil
	}
	addr, ok := h.table[node]
	h.mu.Unlock()
	if !ok {
		return nil, fmt.Errorf("%w: %q", transport.ErrUnknownAddr, node)
	}
	// A node in the table whose dial fails is down, not unknown: callers
	// report a failed send to it, which they never do for an unknown name.
	c, err := net.DialTimeout("tcp", addr, 5*time.Second)
	if err != nil {
		return nil, fmt.Errorf("realnet: dial %q: %w", node, err)
	}
	h.mu.Lock()
	if existing, ok := h.outbound[node]; ok {
		h.mu.Unlock()
		c.Close()
		return existing, nil
	}
	h.outbound[node] = c
	h.mu.Unlock()
	// Inbound frames can arrive on outbound conns too (symmetric use).
	go h.readLoop(c)
	return c, nil
}

// dropConn forgets a broken outbound conn so the next send redials.
func (h *Host) dropConn(node string, c net.Conn) {
	h.mu.Lock()
	if h.outbound[node] == c {
		delete(h.outbound, node)
	}
	h.mu.Unlock()
	c.Close()
}

// endpoint implements transport.Endpoint over the host's TCP fabric.
type endpoint struct {
	host   *Host
	addr   transport.Addr
	queue  *queue
	sendMu sync.Mutex
	// closed is set by Close under host.mu and read by SendFrame without it.
	closed atomic.Bool
}

func (ep *endpoint) Addr() transport.Addr { return ep.addr }

func (ep *endpoint) Send(to transport.Addr, payload []byte) error {
	return ep.SendFrame(to, payload, nil, len(payload))
}

func (ep *endpoint) SendFrame(to transport.Addr, head, body []byte, size int) error {
	if ep.closed.Load() {
		return transport.ErrClosed
	}
	size = max(size, len(head)+len(body))
	conn, err := ep.host.dial(to.Node())
	if err != nil {
		return err
	}
	// The frame is written to the socket before this call returns, so the
	// pooled buffer can be handed straight to WriteFrame.
	e := wire.GetEncoder()
	defer wire.PutEncoder(e)
	e.String(string(ep.addr))
	e.String(string(to))
	e.Int(size)
	e.BytesField(head)
	e.BytesField(body)
	ep.sendMu.Lock()
	defer ep.sendMu.Unlock()
	if err := wire.WriteFrame(conn, e.Bytes()); err != nil {
		ep.host.dropConn(to.Node(), conn)
		// Unreliable-datagram semantics: a broken conn is a lost message,
		// not a send error; the pipe layer retransmits.
		return nil
	}
	return nil
}

func (ep *endpoint) Recv() (transport.Message, error) {
	v, err := ep.queue.Pop()
	if err != nil {
		return transport.Message{}, transport.ErrClosed
	}
	return v.(transport.Message), nil
}

func (ep *endpoint) Serve(fn func(transport.Message)) {
	ep.queue.Serve(func(v any) { fn(v.(transport.Message)) })
}

func (ep *endpoint) Close() error {
	ep.host.mu.Lock()
	if !ep.closed.Swap(true) {
		delete(ep.host.services, ep.addr.Service())
	}
	ep.host.mu.Unlock()
	ep.queue.Close()
	return nil
}

// queue is a cond-based FIFO implementing transport.Queue on real time.
type queue struct {
	mu     sync.Mutex
	cond   *sync.Cond
	items  []any
	closed bool
	opened int // Reopen count: a serving goroutine of an earlier opening stops
}

func newQueue() *queue {
	q := &queue{}
	q.cond = sync.NewCond(&q.mu)
	return q
}

func (q *queue) Push(v any) error {
	q.mu.Lock()
	defer q.mu.Unlock()
	if q.closed {
		return transport.ErrClosed
	}
	q.items = append(q.items, v)
	q.cond.Signal()
	return nil
}

func (q *queue) Pop() (any, error) {
	q.mu.Lock()
	defer q.mu.Unlock()
	for len(q.items) == 0 && !q.closed {
		q.cond.Wait()
	}
	return q.popLocked()
}

// popLocked takes the oldest value, clearing its slot so that the backing
// array does not keep it reachable, or reports the queue closed and drained.
// Caller holds q.mu.
func (q *queue) popLocked() (any, error) {
	if len(q.items) == 0 {
		return nil, transport.ErrClosed
	}
	v := q.items[0]
	q.items[0] = nil
	q.items = q.items[1:]
	return v, nil
}

// Serve runs fn on every value in a goroutine of its own, until the queue is
// closed and drained or reopened.
func (q *queue) Serve(fn func(any)) {
	q.mu.Lock()
	opened := q.opened
	q.mu.Unlock()
	go func() {
		q.mu.Lock()
		defer q.mu.Unlock()
		for q.opened == opened && (len(q.items) > 0 || !q.closed) {
			if len(q.items) == 0 {
				q.cond.Wait()
				continue
			}
			v, _ := q.popLocked()
			q.mu.Unlock()
			fn(v)
			q.mu.Lock()
		}
	}()
}

func (q *queue) Len() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return len(q.items)
}

// Reopen implements transport.Queue.Reopen. A waiter cannot be ruled out
// here: the caller guarantees there is none.
func (q *queue) Reopen() {
	q.mu.Lock()
	defer q.mu.Unlock()
	if !q.closed || len(q.items) > 0 {
		panic("realnet: Reopen on an open or non-empty queue")
	}
	q.closed = false
	q.opened++
	q.cond.Broadcast()
}

func (q *queue) Close() {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.closed = true
	q.cond.Broadcast()
}
