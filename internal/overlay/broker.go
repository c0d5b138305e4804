package overlay

import (
	"bytes"
	"fmt"
	"slices"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/jxta"
	"peerlab/internal/pipe"
	"peerlab/internal/stats"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// BrokerConfig tunes a Broker.
type BrokerConfig struct {
	// AdvTTL is how long client advertisements stay valid (default 1h).
	AdvTTL time.Duration
	// CacheLimit bounds each shard's advertisement directory (default
	// 1024; DESIGN.md "Broker sharding").
	CacheLimit int
	// Shards splits the advertisement directory into N peer-hash shards
	// (default 1); results are identical at any shard count (DESIGN.md
	// "Broker sharding").
	Shards int
}

// DefaultCacheLimit is the per-shard directory bound of a zero
// BrokerConfig.CacheLimit. A deployer that knows it will register more peers
// than this must raise the limit: past it shards evict, and which entries
// survive depends on eviction order and the shard hash.
const DefaultCacheLimit = 1024

func (c BrokerConfig) withDefaults() BrokerConfig {
	if c.AdvTTL <= 0 {
		c.AdvTTL = time.Hour
	}
	if c.CacheLimit <= 0 {
		c.CacheLimit = DefaultCacheLimit
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// Broker is the governor of the P2P network: it keeps the advertisement
// directory (rendezvous role), aggregates per-peer statistics from client
// reports and sender observations, and answers peer-selection requests with
// any registered model. The directory is split across cfg.Shards peer-hash
// caches; the statistics are one registry.
type Broker struct {
	host transport.Host
	cfg  BrokerConfig
	mux  *pipe.Mux

	shards    []*jxta.Cache
	registry  *stats.Registry
	selectors map[string]core.Selector

	// down, while set, makes the broker drop every request unanswered —
	// the fault injector's blackout switch. The mux stays bound (the
	// process is wedged, not the endpoint), so clients see their conns
	// reset rather than an unknown-address error.
	down atomic.Bool

	// ctlRPCs counts well-formed control frames received (including frames
	// dropped by a blackout); tests and benchmarks read it to pin the boot
	// at one RPC per peer.
	ctlRPCs atomic.Int64

	// mu guards dir, the last directory merge (see mergedDir),
	// and its reply; table, the candidate table, and scratch, the copy of it
	// minus exclusions that one selection ranks (see selection.go); and the
	// models' Rank calls (the blind cursor is state). Nothing under it parks
	// a process; the shard caches' locks nest inside it.
	mu      sync.Mutex
	dir     mergedDir
	table   candTable
	scratch []core.Candidate
}

// NewBroker binds the broker service on host and starts serving.
func NewBroker(host transport.Host, cfg BrokerConfig) (*Broker, error) {
	cfg = cfg.withDefaults()
	ep, err := host.Endpoint(ServiceBroker)
	if err != nil {
		return nil, fmt.Errorf("overlay: broker bind: %w", err)
	}
	b := &Broker{
		host:     host,
		cfg:      cfg,
		shards:   make([]*jxta.Cache, cfg.Shards),
		registry: stats.NewRegistry(host.Now),
		// The standard model lineup from the paper's Figure 6, plus the
		// blind baseline. User-preference models are built per request from
		// the preferences the requester sends.
		selectors: map[string]core.Selector{
			"blind":         core.NewBlind(),
			"economic":      core.NewEconomic(core.EconomicConfig{}),
			"same-priority": core.NewSamePriority(),
		},
		dir: mergedDir{stamps: make([]uint64, cfg.Shards), bufs: make([][]jxta.Advertisement, cfg.Shards), enc: wire.NewEncoder(0)},
	}
	for i := range b.shards {
		b.shards[i] = jxta.NewCache(cfg.CacheLimit, host.Now)
	}
	// Every conn is served on its own inbox (the scheduler pools the
	// coroutines the inboxes drain on), so a same-instant burst never
	// serializes behind one handler's park points and is served in arrival
	// order.
	b.mux = pipe.NewMux(host, ep, pipe.Options{Serve: func(pipe.Conn) pipe.Handler { return b }})
	return b, nil
}

// shardOf returns the cache owning a peer name's advertisement (FNV-1a hash
// mod shard count — the ownership rule every directory write routes by). The
// hash is inlined: this sits on the renewal path, so it must not allocate.
func (b *Broker) shardOf(peer string) *jxta.Cache {
	if len(b.shards) == 1 {
		return b.shards[0]
	}
	h := uint32(2166136261)
	for i := 0; i < len(peer); i++ {
		h ^= uint32(peer[i])
		h *= 16777619
	}
	return b.shards[h%uint32(len(b.shards))]
}

// Addr returns the broker's pipe address.
func (b *Broker) Addr() transport.Addr { return b.mux.Addr() }

// Registry exposes the broker's statistics registry (the experiment harness
// reads it directly; remote access goes through the selection service).
func (b *Broker) Registry() *stats.Registry { return b.registry }

// Shards reports the broker's shard count.
func (b *Broker) Shards() int { return len(b.shards) }

// mergedDir is the peer directory merged across shards, current while every
// shard still returns the stamp it had at the merge (jxta.Cache.Stamp, in
// shard order); the zero value is the merge of caches never written. gen
// counts the merges, keying views derived from one (the candidate table).
// bufs, parts and advs are reused by the next merge, so they are read under
// the broker's mu only; reply, the discover reply, is new and immutable per
// merge, detached from enc.
type mergedDir struct {
	gen    uint64
	stamps []uint64
	bufs   [][]jxta.Advertisement // per shard, in shard order
	parts  [][]jxta.Advertisement
	advs   []jxta.Advertisement
	reply  []byte
	enc    *wire.Encoder
}

// Advertisements returns a copy of the sharded peer directory: per-shard
// results merged back into name order. Discovery, selection and Peers all
// read this one merge, so an Expires is the lease as of the merge: never past
// the live one, and in the past for a peer its renewals kept listed.
func (b *Broker) Advertisements() []jxta.Advertisement {
	b.mu.Lock()
	defer b.mu.Unlock()
	return append([]jxta.Advertisement(nil), b.dirLocked().advs...)
}

// directoryReply returns the discover reply, encoded once per merge: every
// discover until some shard's stamp moves, which a renewal does not, is sent
// the same read-only bytes.
func (b *Broker) directoryReply() []byte {
	b.mu.Lock()
	defer b.mu.Unlock()
	d := b.dirLocked()
	if d.reply == nil {
		// One allocation, of the reply's size, however the directory grew:
		// a pooled encoder grown to the reply would not outlive a collection.
		d.enc.Reset()
		encodeDiscoverResult(d.enc, d.advs)
		d.reply = d.enc.Detach()
	}
	return d.reply
}

// dirLocked returns the directory, merged again into its buffers if some
// shard's stamp moved since the last merge. Caller holds mu.
func (b *Broker) dirLocked() *mergedDir {
	d := &b.dir
	current := true
	// Stamps are read before the shards' answers: a publish landing between
	// the two leaves the merge newer than its stamps, and the next call
	// merges again.
	for i, sh := range b.shards {
		if s := sh.Stamp(); s != d.stamps[i] {
			d.stamps[i], current = s, false
		}
	}
	if current {
		return d
	}
	d.reply = nil
	d.gen++
	if len(b.shards) == 1 {
		d.advs = b.shards[0].AppendAll(d.advs[:0])
		return d
	}
	// Each shard answers in name order already, and a name lives in one
	// shard; a k-way merge restores the global order without re-sorting the
	// whole directory. An answer lands in its shard's own buffer in one
	// append, so no shared buffer is regrown shard by shard.
	d.parts = d.parts[:0]
	n := 0
	for i, sh := range b.shards {
		if d.bufs[i] = sh.AppendAll(d.bufs[i][:0]); len(d.bufs[i]) > 0 {
			d.parts = append(d.parts, d.bufs[i])
			n += len(d.bufs[i])
		}
	}
	d.advs = slices.Grow(d.advs[:0], n)
	for parts := d.parts; len(parts) > 0; {
		// The step of the merge, k = shard count, small: take the least of
		// the parts' heads and drop a part once it is exhausted.
		least := 0
		for i := 1; i < len(parts); i++ {
			if parts[i][0].Name < parts[least][0].Name {
				least = i
			}
		}
		d.advs = append(d.advs, parts[least][0])
		if parts[least] = parts[least][1:]; len(parts[least]) == 0 {
			parts[least] = parts[len(parts)-1]
			parts = parts[:len(parts)-1]
		}
	}
	return d
}

// Peers lists registered peer names (live advertisements only).
func (b *Broker) Peers() []string {
	advs := b.Advertisements()
	names := make([]string, 0, len(advs))
	for _, a := range advs {
		names = append(names, a.Name)
	}
	return names
}

// SetDown makes the broker stop answering requests (true) or resume
// (false) without touching its state — the first half of a blackout. While
// down, every request conn is dropped unanswered; the conn teardown resets
// the caller, which then fails fast and, if Resilient, retries.
func (b *Broker) SetDown(down bool) { b.down.Store(down) }

// Restart brings the broker back up after a blackout with a cold
// advertisement cache; the statistics registry and the selection models
// survive (DESIGN.md "Faults & degradation").
func (b *Broker) Restart() {
	for _, sh := range b.shards {
		sh.Clear()
	}
	b.down.Store(false)
}

// Close shuts the broker down.
func (b *Broker) Close() { b.mux.Close() }

// Handle answers one request conn: every exchange is request/response on a
// fresh conn, so its first event is the request. The reply is posted, and
// its completion, or the conn's end, closes the conn; a request left
// unanswered closes it at once.
func (b *Broker) Handle(conn pipe.Conn, ev pipe.Event) {
	if ev.Posted || ev.Err != nil || !b.answer(conn, ev.Msg) {
		conn.Close()
	}
}

// answer posts the reply to one request and reports whether it did.
func (b *Broker) answer(conn pipe.Conn, msg pipe.Message) bool {
	kind, d, err := wire.Tag(msg.Payload)
	if err != nil {
		return false
	}
	b.ctlRPCs.Add(1)
	if b.down.Load() {
		// Blacked out: drop the request unanswered. Closing resets the
		// conn, so the caller fails fast instead of waiting out its full
		// deadline.
		return false
	}
	var reply []byte
	switch kind {
	case mtRegister:
		reply = handle(conn, d, decodeRegister, b.handleRegister)
	case mtStatsReport:
		reply = handle(conn, d, decodeStatsReport, b.handleStatsReport)
	case mtDiscover:
		if bytes.Equal(msg.Payload, discoverFrame) { // any other is malformed
			reply = b.directoryReply()
		}
	case mtSelect:
		reply = handle(conn, d, decodeSelectReq, b.handleSelect)
	case mtReportTransfer:
		reply = b.handleReportTransfer(conn, d)
	case mtPieceReport:
		reply = handle(conn, d, decodePieceReport, b.handlePieceReport)
	case mtReportTask:
		reply = b.handleReportTask(d)
	case mtReportMessage:
		reply = b.handleReportMessage(d)
	}
	return reply != nil && conn.Post(reply) == nil
}

// handle decodes one request and returns h's reply to it; a malformed
// request goes unanswered.
func handle[T any](conn pipe.Conn, d *wire.Decoder, decode func(*wire.Decoder) (T, error), h func(pipe.Conn, T) []byte) []byte {
	if req, err := decode(d); err == nil {
		return h(conn, req)
	}
	return nil
}

// handleRegister publishes the client's advertisement under a fresh lease,
// then applies the load report the frame carries — publish-then-report in
// one exchange and one ack, so the peer is rankable when Start returns. An
// advertised CPU score counts only if it is finite and positive. A register
// speaks for its name alone: the broker stores the kind and ID the name
// implies, as leaseOf rebuilds them, and refuses an empty name.
func (b *Broker) handleRegister(conn pipe.Conn, req register) []byte {
	if req.Adv.Name == "" {
		return wire.Frame(mtRegisterAck, registerAck{}.encodeTo)
	}
	req.Adv.Kind, req.Adv.ID = jxta.AdvPeer, jxta.NewID("peer", req.Adv.Name)
	b.publish(b.shardOf(req.Adv.Name), req.Adv)
	ps := b.registry.Peer(req.Adv.Name)
	if cpu, err := strconv.ParseFloat(req.Adv.Attr(jxta.AttrCPUScore), 64); err == nil && validScore(cpu) {
		ps.SetCPUScore(cpu)
	}
	b.applyStats(ps, req.Stats)
	return wire.Frame(mtRegisterAck, registerAck{OK: true}.encodeTo)
}

// ControlRPCs reports how many well-formed control frames the broker has
// received since construction. A boot costs one (register).
func (b *Broker) ControlRPCs() int64 { return b.ctlRPCs.Load() }

// applyStats folds a client's self-reported load into its statistics record;
// a reported CPU score counts only if it is finite and positive.
func (b *Broker) applyStats(ps *stats.PeerStats, rep statsReport) {
	ps.SetQueues(rep.InboxLen, rep.OutboxLen)
	ps.SetQueueLen(rep.QueueLen)
	ps.SetReadyAt(b.host.Now().Add(rep.ReadyIn))
	if validScore(rep.CPUScore) {
		ps.SetCPUScore(rep.CPUScore)
	}
}

// publish (re)publishes adv under a fresh lease.
func (b *Broker) publish(sh *jxta.Cache, adv jxta.Advertisement) {
	adv.Expires = b.host.Now().Add(b.cfg.AdvTTL)
	sh.Publish(adv)
}

// leaseOf returns the advertisement a report from peer renews. A reporting
// peer whose lease already lapsed (a heartbeat delayed past the TTL under
// churn) is resurrected, not dropped forever: the advertisement is rebuilt
// exactly as registration builds it — name, content-derived ID, transfer
// address from the reporting conn — and lapsed is set, so a live peer's
// directory entry survives one late renewal. Static deployments never
// rebuild (their leases outlive the run).
func (b *Broker) leaseOf(sh *jxta.Cache, peer string, conn pipe.Conn) (adv jxta.Advertisement, lapsed bool) {
	if adv, ok := sh.Lookup(peer); ok {
		return adv, false
	}
	return jxta.Advertisement{
		Kind: jxta.AdvPeer,
		ID:   jxta.NewID("peer", peer),
		Name: peer,
		Addr: string(transport.MakeAddr(conn.Remote().Node(), ServiceTransfer)),
	}, true
}

// handleStatsReport applies a heartbeat: the load report, and a renewal of
// the peer's advertisement lease.
func (b *Broker) handleStatsReport(conn pipe.Conn, rep statsReport) []byte {
	sh := b.shardOf(rep.Peer)
	b.applyStats(b.registry.Peer(rep.Peer), rep)
	adv, lapsed := b.leaseOf(sh, rep.Peer, conn)
	if lapsed && validScore(rep.CPUScore) {
		adv = adv.WithAttr(jxta.AttrCPUScore, strconv.FormatFloat(rep.CPUScore, 'f', -1, 64))
	}
	b.publish(sh, adv)
	return ackFrame
}

func (b *Broker) handleSelect(conn pipe.Conn, req selectReq) []byte {
	peers, serr := b.selectPeers(req)
	res := selectResult{Peers: peers}
	if serr != nil {
		res.Err = serr.Error()
	}
	return wire.Frame(mtSelectResult, res.encodeTo)
}

// handleReportTransfer reads what reportTransferFrame writes, the sink's name
// left in the frame; a malformed report goes unanswered.
func (b *Broker) handleReportTransfer(conn pipe.Conn, d *wire.Decoder) []byte {
	sink, ok, cancelled, size, dur, delay := d.BytesField(), d.Bool(), d.Bool(), d.Int(), d.Duration(), d.Duration()
	if d.Finish() != nil {
		return nil
	}
	ps := b.registry.PeerBytes(sink)
	ps.RecordFileSent(ok)
	ps.RecordTransferOutcome(cancelled)
	if ok {
		ps.ObserveTransferRate(size, dur)
	}
	if delay > 0 {
		ps.ObservePetitionDelay(delay)
	}
	// Origin attribution, launch-level like RecordFileSent above: the source
	// is the reporting conn's remote address (DESIGN.md "Workload layer").
	if from := conn.Remote().Node(); from != "" {
		b.registry.Peer(from).RecordTransferOriginated(ok, size)
	}
	return ackFrame
}

// handlePieceReport folds a disseminating peer's piece inventory and choke
// state into its advertisement attributes and renews the lease, resurrecting
// a lapsed one as a stats report does. Heartbeats keep attributes on renewal,
// so inventory survives between piece reports.
func (b *Broker) handlePieceReport(conn pipe.Conn, rep pieceReport) []byte {
	sh := b.shardOf(rep.Peer)
	adv, _ := b.leaseOf(sh, rep.Peer, conn)
	b.publish(sh, adv.WithAttr(jxta.AttrPieces, rep.Pieces, jxta.AttrUnchoked, rep.Unchoked))
	return ackFrame
}

// handleReportTask reads what reportTaskFrame writes, like handleReportTransfer.
func (b *Broker) handleReportTask(d *wire.Decoder) []byte {
	peer, accepted, ok, spu := d.BytesField(), d.Bool(), d.Bool(), d.Float64()
	if d.Finish() != nil {
		return nil
	}
	ps := b.registry.PeerBytes(peer)
	ps.RecordTaskOffer(accepted)
	if accepted {
		// A reported time counts only if it is finite, as a CPU score does.
		if !finite(spu) {
			spu = 0
		}
		ps.RecordTaskExecution(ok, spu)
	}
	return ackFrame
}

// handleReportMessage reads what reportMessageFrame writes, likewise.
func (b *Broker) handleReportMessage(d *wire.Decoder) []byte {
	peer, ok := d.BytesField(), d.Bool()
	if d.Finish() != nil {
		return nil
	}
	b.registry.PeerBytes(peer).RecordMessage(ok)
	return ackFrame
}
