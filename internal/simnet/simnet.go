// Package simnet simulates a wide-area network of heterogeneous nodes on
// virtual time.
//
// It is the repo's stand-in for PlanetLab: each node carries a Profile
// describing its access-link latency and bandwidth, its sliver load (idle
// wake-up lag — the effect behind the paper's Figure 2 petition times), a
// failure-restart model (MTBF — behind Figure 5's "whole file is not worth
// it"), and a size-dependent bandwidth degradation modeling whole-message
// buffering on memory-starved slivers.
//
// simnet implements the transport interfaces, so every protocol layer above
// it (pipes, discovery, the overlay) runs unmodified on either simnet or
// realnet.
package simnet

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"sync"
	"time"

	"peerlab/internal/transport"
	"peerlab/internal/vtime"
)

// Profile describes one node's hardware, load and access link.
type Profile struct {
	// LatencyOneWay is the one-way propagation delay of the node's access
	// link. The end-to-end latency of a path is the sum of both endpoints'.
	LatencyOneWay time.Duration
	// Jitter is the half-width of the uniform jitter added per message.
	Jitter time.Duration
	// Bandwidth is the access-link application-level throughput in
	// bytes/second. The path bandwidth is the min of the two endpoints'.
	Bandwidth float64
	// MTBF is the node's mean time between receive failures: a message whose
	// transmission occupies the link for d is lost with probability
	// 1-exp(-d/MTBF). Zero disables the failure model.
	MTBF time.Duration
	// CPUScore is the node's relative compute speed (reference machine =
	// 1.0); execution of w work units takes w/CPUScore seconds.
	CPUScore float64
	// WakeLag is the mean extra delay suffered by a message that arrives
	// while the node is idle — the sliver-scheduling / relay-polling lag
	// that dominates the paper's petition times (Figure 2). Zero disables.
	WakeLag time.Duration
	// WakeLagSpread is the relative half-width of the uniform wake-lag
	// distribution (0.2 means ±20%).
	WakeLagSpread float64
	// EngagedWindow is how long after any activity the node remains
	// "engaged" (no wake lag). Defaults to 30s when <= 0 and WakeLag > 0.
	EngagedWindow time.Duration
	// DegradeRefBytes and DegradeExp define the size-dependent bandwidth
	// degradation of messages received by this node:
	//   effBW = BW / (1 + (size/DegradeRefBytes)^DegradeExp)
	// Zero RefBytes disables degradation.
	DegradeRefBytes float64
	DegradeExp      float64
}

// DefaultProfile is a well-connected, lightly loaded node. Useful for tests
// and for broker-side nodes.
func DefaultProfile() Profile {
	return Profile{
		LatencyOneWay: 10 * time.Millisecond,
		Bandwidth:     10e6, // 10 MB/s
		CPUScore:      1.0,
	}
}

// Network is a simulated network on a virtual-time scheduler.
type Network struct {
	sched *vtime.Scheduler
	seed  int64

	mu        sync.Mutex
	nodes     map[string]*Node
	partsKey  map[pairKey]bool          // severed directed pairs
	busy      map[pairKey]time.Duration // a directed pair's uplink busy-until
	extraLoss map[string]float64        // per-node drop probability (SetExtraLoss)

	// Counters are cumulative across the network's lifetime.
	sent      int64
	delivered int64
	dropped   int64

	// envelopes recycles delivered frames' records, each with the buffer its
	// head is copied into; see recycle.
	envelopes []*transport.Message
}

type pairKey struct{ from, to string }

// New returns an empty network with its own scheduler. The seed makes every
// random draw (jitter, loss, wake lag) reproducible.
func New(seed int64) *Network {
	return &Network{
		sched:     vtime.NewScheduler(),
		seed:      seed,
		nodes:     make(map[string]*Node),
		partsKey:  make(map[pairKey]bool),
		busy:      make(map[pairKey]time.Duration),
		extraLoss: make(map[string]float64),
	}
}

// Scheduler exposes the underlying virtual-time scheduler.
func (n *Network) Scheduler() *vtime.Scheduler { return n.sched }

// Run starts fn as a root process and blocks until the network quiesces.
func (n *Network) Run(fn func()) {
	n.sched.Go(fn)
	n.sched.Wait()
}

// Now returns the current virtual time.
func (n *Network) Now() time.Time { return n.sched.Now() }

// AddNode registers a node. Node names must be unique.
func (n *Network) AddNode(name string, p Profile) (*Node, error) {
	if p.Bandwidth <= 0 {
		return nil, fmt.Errorf("simnet: node %q: bandwidth must be positive", name)
	}
	if p.CPUScore <= 0 {
		p.CPUScore = 1.0
	}
	if p.WakeLag > 0 && p.EngagedWindow <= 0 {
		p.EngagedWindow = 30 * time.Second
	}
	n.mu.Lock()
	defer n.mu.Unlock()
	if _, dup := n.nodes[name]; dup {
		return nil, fmt.Errorf("simnet: duplicate node %q", name)
	}
	node := &Node{
		net:     n,
		name:    name,
		profile: p,
		// A freshly added node has never been active: it must pay the
		// wake-up lag on first contact. Half of MinInt64 avoids overflow
		// when the engaged window is added.
		lastActive: time.Duration(-1 << 62),
		wakeAt:     time.Duration(-1 << 62),
	}
	n.nodes[name] = node
	return node, nil
}

// MustAddNode is AddNode that panics on error; for tests and bench/.
func (n *Network) MustAddNode(name string, p Profile) *Node {
	node, err := n.AddNode(name, p)
	if err != nil {
		panic(err)
	}
	return node
}

// Partition severs (or heals) the directed pair from→to.
func (n *Network) Partition(from, to string, severed bool) {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.partsKey[pairKey{from, to}] = severed
}

// SetExtraLoss sets the per-message drop probability of every message to or
// from the named node (a lossy link, a loss burst), the network's one loss
// model; rate <= 0 clears it. Both endpoints' rates sum (capped at 1). The
// draw is made only while a rate is positive, so a cleared rate leaves no
// trace in the draw streams.
func (n *Network) SetExtraLoss(name string, rate float64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	if rate <= 0 {
		delete(n.extraLoss, name)
		return
	}
	n.extraLoss[name] = rate
}

// Stats reports cumulative message counters: sent, delivered, dropped.
func (n *Network) Stats() (sent, delivered, dropped int64) {
	n.mu.Lock()
	defer n.mu.Unlock()
	return n.sent, n.delivered, n.dropped
}

func hashSeed(seed int64, a, b string) int64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d|%s|%s", seed, a, b)
	return int64(h.Sum64())
}

// Node is one simulated machine. It implements transport.Host.
type Node struct {
	net     *Network
	name    string
	profile Profile

	// Guarded by net.mu:
	endpoints  map[string]*endpoint // made on first bind: a node never booted holds none
	lastActive time.Duration        // last time the node did anything
	wakeAt     time.Duration        // pending wake-up time, if any
	rng        *rand.Rand           // made on first use; see randLocked
}

// randLocked returns the node's deterministic random source, made on first
// use: its seed is a pure function of (network seed, node name), so a node
// that never draws holds nothing. Caller holds net.mu.
func (nd *Node) randLocked() *rand.Rand {
	if nd.rng == nil {
		nd.rng = transport.NewRand(hashSeed(nd.net.seed, nd.name, ""))
	}
	return nd.rng
}

var _ transport.Host = (*Node)(nil)

// Name returns the node name.
func (nd *Node) Name() string { return nd.name }

// Go starts fn as a process on the network's scheduler.
func (nd *Node) Go(fn func()) { nd.net.sched.Go(fn) }

// Now returns the current virtual time.
func (nd *Node) Now() time.Time { return nd.net.sched.Now() }

// Sleep parks the calling process for d of virtual time.
func (nd *Node) Sleep(d time.Duration) { nd.net.sched.Sleep(d) }

// AfterFunc runs fn after d of virtual time.
func (nd *Node) AfterFunc(d time.Duration, fn func()) transport.Timer {
	return nd.net.sched.AfterFunc(d, fn)
}

// Rand returns the node's deterministic random source.
func (nd *Node) Rand() *rand.Rand {
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	return nd.randLocked()
}

// NewQueue returns a virtual-time-aware FIFO.
func (nd *Node) NewQueue() transport.Queue { return vtime.NewQueue(nd.net.sched) }

// Endpoint binds the named service on this node.
func (nd *Node) Endpoint(service string) (transport.Endpoint, error) {
	if service == "" {
		return nil, fmt.Errorf("simnet: empty service name")
	}
	nd.net.mu.Lock()
	defer nd.net.mu.Unlock()
	if _, dup := nd.endpoints[service]; dup {
		return nil, fmt.Errorf("simnet: service %q already bound on %q", service, nd.name)
	}
	ep := &endpoint{
		node:  nd,
		addr:  transport.MakeAddr(nd.name, service),
		queue: vtime.NewQueue(nd.net.sched),
	}
	if nd.endpoints == nil {
		nd.endpoints = make(map[string]*endpoint)
	}
	nd.endpoints[service] = ep
	return ep, nil
}

// endpoint implements transport.Endpoint over a vtime queue.
type endpoint struct {
	node   *Node
	addr   transport.Addr
	queue  *vtime.Queue
	closed bool
	held   *transport.Message // the envelope the last Recv returned; the next recycles it
}

func (ep *endpoint) Addr() transport.Addr { return ep.addr }

func (ep *endpoint) Send(to transport.Addr, payload []byte) error {
	return ep.SendFrame(to, payload, nil, len(payload))
}

// SendFrame models the full lifecycle of one message:
//
//  1. serialization on the sender's uplink toward the destination node
//     (sender blocks; back-to-back messages to the same node queue up),
//  2. propagation (sum of both endpoints' one-way latencies, plus jitter),
//  3. receiver wake-up lag if the destination is idle,
//  4. loss: Partition, both ends' SetExtraLoss rates, and a failure-restart
//     draw with probability 1-exp(-txTime/MTBF) of the *receiver*.
//
// The effective bandwidth of the path is the min of the endpoints' access
// links divided by the receiver's size-degradation factor.
func (ep *endpoint) SendFrame(to transport.Addr, head, body []byte, size int) error {
	size = max(size, len(head)+len(body))
	src := ep.node
	net := src.net
	nowT := net.sched.Now()
	now := nowT.Sub(vtime.Epoch)

	net.mu.Lock()
	if ep.closed {
		net.mu.Unlock()
		return transport.ErrClosed
	}
	net.sent++
	dstNode, ok := net.nodes[to.Node()]
	if !ok {
		net.dropped++
		net.mu.Unlock()
		return fmt.Errorf("%w: %s", transport.ErrUnknownAddr, to)
	}

	// Timing.
	p, q := src.profile, dstNode.profile
	bw := math.Min(p.Bandwidth, q.Bandwidth)
	if q.DegradeRefBytes > 0 && size > 0 {
		bw /= 1 + math.Pow(float64(size)/q.DegradeRefBytes, q.DegradeExp)
	}
	txDur := time.Duration(float64(size) / bw * float64(time.Second))
	// Keys built in place: a named one grew the frame every sender parks on.
	txEnd := max(now, net.busy[pairKey{src.name, dstNode.name}]) + txDur
	net.busy[pairKey{src.name, dstNode.name}] = txEnd
	src.lastActive = txEnd

	latency := p.LatencyOneWay + q.LatencyOneWay
	jitter := time.Duration(0)
	if j := p.Jitter + q.Jitter; j > 0 {
		jitter = time.Duration(src.randLocked().Int63n(int64(2*j))) - j
		if latency+jitter < 0 {
			jitter = -latency
		}
	}
	arrival := txEnd + latency + jitter

	// Receiver wake-up lag. A loaded sliver takes WakeLag to notice traffic
	// after going idle; messages arriving while the node is asleep are
	// delivered only once it wakes, so they cannot overtake the message that
	// triggered the wake.
	if q.WakeLag > 0 {
		engagedUntil := dstNode.lastActive + q.EngagedWindow
		switch {
		case dstNode.wakeAt >= arrival:
			// The node is asleep and a wake is already pending after this
			// arrival (lastActive may point at that future delivery, so this
			// check must come first): deliver once awake.
			arrival = dstNode.wakeAt
		case arrival <= engagedUntil:
			// Engaged: delivered promptly.
		default:
			// Idle with no pending wake: this message triggers one.
			factor := 1.0
			if s := q.WakeLagSpread; s > 0 {
				factor = 1 - s + 2*s*src.randLocked().Float64()
			}
			arrival += time.Duration(float64(q.WakeLag) * factor)
			dstNode.wakeAt = arrival
		}
	}

	// Loss.
	lost := net.partsKey[pairKey{src.name, dstNode.name}]
	if extra := net.extraLoss[src.name] + net.extraLoss[dstNode.name]; !lost && extra > 0 {
		if src.randLocked().Float64() < min(extra, 1) {
			lost = true
		}
	}
	if !lost && q.MTBF > 0 && txDur > 0 {
		pFail := 1 - math.Exp(-float64(txDur)/float64(q.MTBF))
		if src.randLocked().Float64() < pFail {
			lost = true
		}
	}

	var dstEP *endpoint
	if !lost {
		dstEP = dstNode.endpoints[to.Service()]
		if dstEP == nil || dstEP.closed {
			lost = true
		}
	}
	var env *transport.Message
	if lost {
		net.dropped++
	} else {
		net.delivered++
		if arrival > dstNode.lastActive {
			dstNode.lastActive = arrival
		}
		if n := len(net.envelopes); n > 0 {
			env, net.envelopes = net.envelopes[n-1], net.envelopes[:n-1]
		} else {
			env = new(transport.Message)
		}
	}
	net.mu.Unlock()

	if !lost {
		// A frame that meets a closed queue leaves env to the collector.
		env.From, env.Payload, env.Body, env.Size = ep.addr, append(env.Payload[:0], head...), body, size
		dstEP.queue.PushAt(env, vtime.Epoch.Add(arrival))
	}

	// The sender is occupied until serialization completes.
	net.sched.Sleep(txEnd - now)
	return nil
}

func (ep *endpoint) Recv() (transport.Message, error) {
	if ep.held != nil {
		ep.node.net.recycle(ep.held)
		ep.held = nil
	}
	v, err := ep.queue.Pop()
	if err != nil {
		return transport.Message{}, transport.ErrClosed
	}
	ep.held = v.(*transport.Message)
	return *ep.held, nil
}

func (ep *endpoint) Serve(fn func(transport.Message)) {
	ep.queue.Serve(func(v any) {
		env := v.(*transport.Message)
		fn(*env)
		ep.node.net.recycle(env)
	})
}

// recycle returns a delivered frame's envelope to the free list, keeping its
// head buffer for the next frame and letting the sender's body go.
func (n *Network) recycle(env *transport.Message) {
	env.From, env.Body = "", nil
	n.mu.Lock()
	n.envelopes = append(n.envelopes, env)
	n.mu.Unlock()
}

func (ep *endpoint) Close() error {
	ep.node.net.mu.Lock()
	if !ep.closed {
		ep.closed = true
		delete(ep.node.endpoints, ep.addr.Service())
	}
	ep.node.net.mu.Unlock()
	ep.queue.Close()
	return nil
}
