// Package transport defines the interfaces shared by the simulated network
// (internal/simnet) and the real-socket network (internal/realnet).
//
// Protocol code is written exclusively against these interfaces, so the same
// implementation runs on virtual time for experiments and on TCP for the
// cmd/ daemons. The base service is an unreliable, message-oriented
// Endpoint: messages may be dropped, never corrupted or duplicated;
// internal/pipe layers reliability on top.
package transport

import (
	"errors"
	"math/rand"
	"strings"
	"time"
)

// Addr identifies a service endpoint as "node/service", e.g.
// "planetlab1.hiit.fi/overlay".
type Addr string

// MakeAddr builds an Addr from a node name and service name.
func MakeAddr(node, service string) Addr {
	return Addr(node + "/" + service)
}

// Split returns the node and service components of the address. Unparseable
// addresses yield the whole string as node and an empty service.
func (a Addr) Split() (node, service string) {
	s := string(a)
	if i := strings.IndexByte(s, '/'); i >= 0 {
		return s[:i], s[i+1:]
	}
	return s, ""
}

// Node returns the node component of the address.
func (a Addr) Node() string {
	n, _ := a.Split()
	return n
}

// Service returns the service component of the address.
func (a Addr) Service() string {
	_, s := a.Split()
	return s
}

// Message is one datagram handed to an Endpoint: a frame of two parts, the
// head and the body a sender passed to SendFrame (Send sends a head alone).
// Both are read-only. The head is the network's, valid until Serve's fn
// returns or the next Recv: a receiver decodes it there or copies it. The body
// is shared by reference (simnet delivers the very buffer the sender gave up,
// realnet the frame it read): a receiver may keep it but never writes it.
type Message struct {
	From    Addr
	Payload []byte // the head
	Body    []byte
	// Size is the number of bytes the message occupies on the wire. It is
	// at least len(Payload)+len(Body); the transfer engine sends file parts
	// with a small real payload and a large Size so that simulating a 100 Mb
	// part does not allocate 100 MB.
	Size int
}

// Common transport errors.
var (
	ErrClosed      = errors.New("transport: endpoint closed")
	ErrUnknownAddr = errors.New("transport: unknown address")
)

// Endpoint is an unreliable, message-oriented network endpoint bound to one
// "node/service" address.
type Endpoint interface {
	// Addr returns the endpoint's own address.
	Addr() Addr
	// Send transmits payload to the destination as a frame's head with no
	// body: SendFrame(to, payload, nil, len(payload)).
	Send(to Addr, payload []byte) error
	// SendFrame transmits a frame of head and body occupying size bytes on
	// the wire (at least len(head)+len(body)). It blocks for the
	// serialization time of the message on the sender's uplink (virtual time
	// under simnet). Delivery is not guaranteed. The head is copied before
	// SendFrame returns; the body is given up, and receivers may be handed
	// that very buffer (Message).
	SendFrame(to Addr, head, body []byte, size int) error
	// Recv blocks until a message arrives or the endpoint is closed. The
	// message's head is valid until the next Recv.
	Recv() (Message, error)
	// Serve hands every message to fn in arrival order, in place of a
	// process looping on Recv (see Queue.Serve); a head is valid until fn
	// returns.
	Serve(fn func(Message))
	// Close releases the endpoint; pending and future Recvs return
	// ErrClosed.
	Close() error
}

// Timer is a cancellable timer returned by Host.AfterFunc.
type Timer interface {
	// Stop cancels the timer, reporting whether it prevented the callback.
	Stop() bool
	// Reset re-arms the timer to run its callback d from now, in place of a
	// pending run, and reports whether there was one.
	Reset(d time.Duration) bool
}

// Queue is a host-provided unbounded FIFO whose Pop parks the calling
// process in a scheduler-aware way. Protocol code must use Host.NewQueue
// for any producer/consumer handoff: blocking on a raw Go channel would
// stall the virtual clock under simnet. A Pop has no deadline of its own: a
// wait that must end is ended by a Timer that closes the queue or pushes
// onto it (a pipe conn's deadline does).
type Queue interface {
	// Push appends v, waking the oldest waiter. Returns ErrClosed after
	// Close.
	Push(v any) error
	// Pop blocks until a value is available or the queue is closed.
	Pop() (any, error)
	// Len reports the number of buffered values.
	Len() int
	// Close wakes all waiters with ErrClosed; buffered values remain
	// poppable.
	Close()
	// Reopen makes a closed queue, drained and with no waiter, open again
	// as if new, unserved, so its owner can reuse it (a recycled pipe
	// conn's inbox). It panics on an open or non-empty queue.
	Reopen()
	// Serve makes fn the only consumer, in place of a process looping on
	// Pop: fn gets every value in FIFO order, one at a time, until the queue
	// is closed and drained. Under simnet an idle served queue holds nothing.
	Serve(fn func(any))
}

// Host is one node's view of the network and of time. All blocking calls
// made through a Host park only the calling process; under simnet they
// consume no wall-clock time.
type Host interface {
	// Name returns the node name (e.g. a PlanetLab hostname).
	Name() string
	// Endpoint binds and returns the endpoint for a named service. Binding
	// the same service twice is an error.
	Endpoint(service string) (Endpoint, error)
	// Go runs fn as a new process attached to the host's scheduler.
	Go(fn func())
	// Now returns the current (virtual or real) time.
	Now() time.Time
	// Sleep parks the calling process for d.
	Sleep(d time.Duration)
	// AfterFunc runs fn in a new process after d.
	AfterFunc(d time.Duration, fn func()) Timer
	// Rand returns the host's deterministic random source. It must only be
	// used from one process at a time (protocol code on a host is
	// effectively single-threaded per service).
	Rand() *rand.Rand
	// NewQueue returns a scheduler-aware FIFO (see Queue).
	NewQueue() Queue
}
