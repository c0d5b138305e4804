package overlay

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
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
	// CacheLimit bounds the advertisement directory (default 1024). Each
	// shard holds at most CacheLimit advertisements of the peers it owns:
	// any workload a single-shard directory serves without evicting is
	// served identically at any shard count (a shard never holds more than
	// the whole network would).
	CacheLimit int
	// Shards splits the advertisement directory and the statistics
	// registry into N peer-hash shards (default 1). Every per-peer event —
	// registration, stats report, transfer/task/message outcome — touches
	// only the shard owning that peer; whole-network reads (discovery,
	// selection, Snapshots) aggregate across shards in canonical order, so
	// results are identical at any shard count.
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

// shard owns one peer-hash slice of the broker's state: the advertisement
// cache entries and the statistics of the peers hashing to it.
type shard struct {
	cache    *jxta.Cache
	registry *stats.Registry
}

// Broker is the governor of the P2P network: it keeps the advertisement
// directory (rendezvous role), aggregates per-peer statistics from client
// reports and sender observations, and answers peer-selection requests with
// any registered model. State is split across cfg.Shards peer-hash shards
// so large slices do not serialize on one registry.
type Broker struct {
	host transport.Host
	cfg  BrokerConfig
	mux  *pipe.Mux

	shards    []*shard
	registry  *stats.Union
	selectors map[string]core.Ranker

	// down, while set, makes the broker drop every request unanswered —
	// the fault injector's blackout switch. The mux stays bound (the
	// process is wedged, not the endpoint), so clients see their conns
	// reset rather than an unknown-address error.
	down atomic.Bool

	// ctlRPCs counts well-formed control frames received (including frames
	// dropped by a blackout); tests and benchmarks read it to pin the boot
	// at one RPC per peer.
	ctlRPCs atomic.Int64

	// Rank index (see rankindex.go): memoized full-directory rankings keyed
	// on request shape and validated against cache/registry mutation
	// versions.
	rankMu   sync.Mutex
	rankRing [rankIndexSlots]*rankEntry
	rankNext int

	// dir is the last whole-kind directory merge (see mergedDir).
	dirMu sync.Mutex
	dir   mergedDir
}

// NewBroker binds the broker service on host and starts serving.
func NewBroker(host transport.Host, cfg BrokerConfig) (*Broker, error) {
	cfg = cfg.withDefaults()
	ep, err := host.Endpoint(ServiceBroker)
	if err != nil {
		return nil, fmt.Errorf("overlay: broker bind: %w", err)
	}
	b := &Broker{
		host:      host,
		cfg:       cfg,
		mux:       pipe.NewMux(host, ep, pipe.Options{}),
		shards:    make([]*shard, cfg.Shards),
		selectors: make(map[string]core.Ranker),
		dir:       mergedDir{stamps: make([]uint64, cfg.Shards)},
	}
	regs := make([]*stats.Registry, cfg.Shards)
	for i := range b.shards {
		b.shards[i] = &shard{
			cache:    jxta.NewCache(cfg.CacheLimit, host.Now),
			registry: stats.NewRegistry(host.Now),
		}
		regs[i] = b.shards[i].registry
	}
	b.registry = stats.NewUnion(regs, func(peer string) *stats.Registry {
		return b.shardOf(peer).registry
	})
	// The standard model lineup from the paper's Figure 6, plus the blind
	// baseline. User-preference models are built per request from the
	// preferences the requester sends.
	b.RegisterSelector(core.NewBlind())
	b.RegisterSelector(core.NewEconomic(core.EconomicConfig{}))
	b.RegisterSelector(core.NewSamePriority())
	// Every conn is served by a process of its own (the scheduler pools the
	// coroutines), so a same-instant burst never serializes behind one
	// handler's park points and is served in arrival order.
	b.mux.Serve(b.serve)
	return b, nil
}

// shardOf returns the shard owning a peer name (FNV-1a hash mod shard
// count — the ownership rule every handler routes by). The hash is inlined:
// this sits on the per-message path and runs once per candidate during
// selection, so it must not allocate.
func (b *Broker) shardOf(peer string) *shard {
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

// Registry exposes the broker's whole-network statistics view (the
// experiment harness reads it directly; remote access goes through the
// selection service). Per-peer access routes to the owning shard.
func (b *Broker) Registry() *stats.Union { return b.registry }

// Shards reports the broker's shard count.
func (b *Broker) Shards() int { return len(b.shards) }

// mergedDir is a whole-kind directory merged across shards, with the stamp
// every shard's cache carried when it was merged (jxta.Cache.Stamp, in shard
// order): while every shard still returns that stamp its live set is the one
// merged, so the merge is current. advs is immutable once built, and so is
// reply, the whole-kind discover reply encoding it, made by the first
// discover that asks and sent to every one after it. size is the last
// reply's length.
type mergedDir struct {
	kind   jxta.AdvKind
	stamps []uint64
	advs   []jxta.Advertisement
	reply  []byte
	size   int
}

// Advertisements queries the sharded advertisement directory: per-shard
// results merged back into canonical (Name, ID) order. Discovery, selection
// and Peers all read this one view. The result is read-only: a named query,
// or any query of a one-shard broker, is the owning shard's own answer (see
// jxta.Cache.Query), and a whole-kind merge is shared by every caller until
// some shard's stamp moves.
func (b *Broker) Advertisements(kind jxta.AdvKind, name string) []jxta.Advertisement {
	if name != "" {
		return b.shardOf(name).cache.Query(kind, name)
	}
	b.dirMu.Lock()
	defer b.dirMu.Unlock()
	return b.dirLocked(kind).advs
}

// directoryReply returns the whole-kind discover reply for kind, encoded once
// per directory version: every discover until some shard's stamp moves is
// sent the same read-only bytes.
func (b *Broker) directoryReply(kind jxta.AdvKind) []byte {
	b.dirMu.Lock()
	defer b.dirMu.Unlock()
	d := b.dirLocked(kind)
	if d.reply == nil {
		// One allocation while the directory keeps its size: a pooled
		// encoder grown to the reply would not outlive a collection.
		e := wire.NewEncoder(d.size)
		encodeDiscoverResult(e, d.advs)
		d.reply, d.size = e.Bytes(), e.Len()
	}
	return d.reply
}

// dirLocked returns the whole-kind directory, merged again if some shard's
// stamp moved since the last merge. Caller holds dirMu.
func (b *Broker) dirLocked(kind jxta.AdvKind) *mergedDir {
	d := &b.dir
	current := d.kind == kind
	// Stamps are read before the shards' answers: a publish landing between
	// the two leaves the merge newer than its stamps, and the next call
	// merges again.
	for i, sh := range b.shards {
		if s := sh.cache.Stamp(); s != d.stamps[i] {
			d.stamps[i], current = s, false
		}
	}
	if current {
		return d
	}
	d.kind, d.reply = kind, nil
	if len(b.shards) == 1 {
		d.advs = b.shards[0].cache.Query(kind, "")
		return d
	}
	// Each shard answers in canonical order already; a k-way merge restores
	// the global order without re-sorting the whole directory.
	parts, total := make([][]jxta.Advertisement, 0, len(b.shards)), 0
	for _, sh := range b.shards {
		if p := sh.cache.Query(kind, ""); len(p) > 0 {
			parts, total = append(parts, p), total+len(p)
		}
	}
	d.kind, d.advs = kind, slices.Grow([]jxta.Advertisement(nil), total) // nil when empty
	for len(parts) > 0 {
		// The step of the merge, k = shard count, small: take the least of
		// the parts' heads and drop a part once it is exhausted.
		least := 0
		for i := 1; i < len(parts); i++ {
			if jxta.CompareAdvertisements(parts[i][0], parts[least][0]) < 0 {
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

// RegisterSelector installs (or replaces) a selection model under its name.
func (b *Broker) RegisterSelector(s core.Ranker) {
	b.selectors[s.Name()] = s
}

// knownPeers counts live peer advertisements across shards — the value
// len(Peers()) reports, computed from per-shard O(1) counts instead of
// listing the whole directory. Registration acks carry it, so a boot wave
// of N peers must not pay O(N) per ack.
func (b *Broker) knownPeers() int {
	n := 0
	for _, sh := range b.shards {
		n += sh.cache.LiveLen(jxta.AdvPeer)
	}
	return n
}

// Peers lists registered peer names (live advertisements only).
func (b *Broker) Peers() []string {
	advs := b.Advertisements(jxta.AdvPeer, "")
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
// advertisement cache: every shard's directory is wiped, so registered
// peers vanish from discovery and selection until they re-register or
// their next stats report resurrects them. Statistics registries survive —
// the paper's broker persists its statistical records across restarts —
// and registered selection models are untouched.
func (b *Broker) Restart() {
	for _, sh := range b.shards {
		sh.cache.Clear()
	}
	b.down.Store(false)
}

// Close shuts the broker down.
func (b *Broker) Close() { b.mux.Close() }

// serve handles one request conn. Every exchange is request/response on a
// fresh conn, so a single Recv suffices.
func (b *Broker) serve(conn *pipe.Conn) {
	defer conn.Close()
	msg, err := conn.Recv()
	if err != nil {
		return
	}
	kind, d, err := kindOf(msg.Payload)
	if err != nil {
		return
	}
	b.ctlRPCs.Add(1)
	if b.down.Load() {
		// Blacked out: drop the request unanswered. The deferred Close
		// resets the conn, so the caller fails fast instead of waiting
		// out its full deadline.
		return
	}
	switch kind {
	case mtRegister:
		b.handleRegister(conn, d)
	case mtStatsReport:
		b.handleStatsReport(conn, d)
	case mtDiscover:
		b.handleDiscover(conn, d)
	case mtSelect:
		b.handleSelect(conn, d)
	case mtReportTransfer:
		b.handleReportTransfer(conn, d)
	case mtPieceReport:
		b.handlePieceReport(conn, d)
	case mtReportTask:
		b.handleReportTask(conn, d)
	case mtReportMessage:
		b.handleReportMessage(conn, d)
	}
}

// handleRegister publishes the client's advertisement under a fresh lease,
// then applies the load report the frame carries — publish-then-report in
// one exchange and one ack, so the peer is rankable when Start returns. An
// advertised CPU score counts only if it is finite and positive. A register
// speaks for its name alone: the broker stores the kind and ID the name
// implies, as leaseOf rebuilds them, and refuses an empty name.
func (b *Broker) handleRegister(conn *pipe.Conn, d *wire.Decoder) {
	req, err := decodeRegister(d)
	if err != nil {
		return
	}
	if req.Adv.Name == "" {
		sendReply(conn, registerAck{Broker: b.host.Name()}.encodeTo)
		return
	}
	req.Adv.Kind, req.Adv.ID = jxta.AdvPeer, jxta.NewID("peer", req.Adv.Name)
	sh := b.shardOf(req.Adv.Name)
	b.publish(sh, req.Adv)
	ps := sh.registry.Peer(req.Adv.Name)
	if cpu, err := strconv.ParseFloat(req.Adv.Attr(jxta.AttrCPUScore), 64); err == nil && cpu > 0 && finite(cpu) {
		ps.SetCPUScore(cpu)
	}
	b.applyStats(ps, req.Stats)
	ack := registerAck{OK: true, Broker: b.host.Name(), KnownPeers: b.knownPeers()}
	sendReply(conn, ack.encodeTo)
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
	if rep.CPUScore > 0 && finite(rep.CPUScore) {
		ps.SetCPUScore(rep.CPUScore)
	}
}

// publish (re)publishes adv under a fresh lease.
func (b *Broker) publish(sh *shard, adv jxta.Advertisement) {
	adv.Expires = b.host.Now().Add(b.cfg.AdvTTL)
	sh.cache.Publish(adv)
}

// leaseOf returns the advertisement a report from peer renews. A reporting
// peer whose lease already lapsed (a heartbeat delayed past the TTL under
// churn) is resurrected, not dropped forever: the advertisement is rebuilt
// exactly as registration builds it — name, content-derived ID, transfer
// address from the reporting conn — and lapsed is set, so a live peer's
// directory entry survives one late renewal. Static deployments never
// rebuild (their leases outlive the run).
func (b *Broker) leaseOf(sh *shard, peer string, conn *pipe.Conn) (adv jxta.Advertisement, lapsed bool) {
	id := jxta.NewID("peer", peer)
	if adv, ok := sh.cache.Lookup(id); ok {
		return adv, false
	}
	return jxta.Advertisement{
		Kind: jxta.AdvPeer,
		ID:   id,
		Name: peer,
		Addr: string(transport.MakeAddr(conn.Remote().Node(), ServiceTransfer)),
	}, true
}

// handleStatsReport applies a heartbeat: the load report, and a renewal of
// the peer's advertisement lease.
func (b *Broker) handleStatsReport(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodeStatsReport(d)
	if err != nil {
		return
	}
	sh := b.shardOf(rep.Peer)
	b.applyStats(sh.registry.Peer(rep.Peer), rep)
	adv, lapsed := b.leaseOf(sh, rep.Peer, conn)
	if lapsed && rep.CPUScore > 0 && finite(rep.CPUScore) {
		adv = adv.WithAttr(jxta.AttrCPUScore, strconv.FormatFloat(rep.CPUScore, 'f', -1, 64))
	}
	b.publish(sh, adv)
	conn.Send(ackFrame)
}

func (b *Broker) handleDiscover(conn *pipe.Conn, d *wire.Decoder) {
	req, err := decodeDiscover(d)
	if err != nil {
		return
	}
	if req.Name == "" {
		conn.Send(b.directoryReply(req.Kind))
		return
	}
	sendReply(conn, func(e *wire.Encoder) { b.encodeDirectory(e, req.Kind, req.Name) })
}

// encodeDirectory appends the discover reply for (kind, name): the merged
// directory, encoded in order.
func (b *Broker) encodeDirectory(e *wire.Encoder, kind jxta.AdvKind, name string) {
	encodeDiscoverResult(e, b.Advertisements(kind, name))
}

func (b *Broker) handleSelect(conn *pipe.Conn, d *wire.Decoder) {
	req, err := decodeSelectReq(d)
	if err != nil {
		return
	}
	peers, addrs, serr := b.selectPeers(req)
	res := selectResult{Peers: peers, Addrs: addrs}
	if serr != nil {
		res.Err = serr.Error()
	}
	sendReply(conn, res.encodeTo)
}

// candPool recycles candidate slices across selections: at thousands of
// registered peers the per-request candidate set is megabytes, and a
// selection-heavy swarm would otherwise spend a quarter of its time in GC.
var candPool = sync.Pool{New: func() any { return new([]core.Candidate) }}

// selectPeers resolves the requested model and runs it over the registered
// peers through selectRanked (rankindex.go). Only a registered model that
// asserts purity (core.PureRanker) is memoized in the rank index;
// everything else — the stateful blind cursor, the data evaluator's
// set-relative scores, per-request preference models — passes a nil
// capability and is ranked from scratch every time.
func (b *Broker) selectPeers(req selectReq) (peers, addrs []string, err error) {
	sel, ok := b.selectors[req.Model]
	var pure core.PureRanker
	if core.UsesPreferences(req.Model) {
		// Built per request from the user's own ranking.
		sel, ok = core.NewUserPreference(req.Preferred), true
	} else {
		pure, _ = sel.(core.PureRanker)
	}
	if !ok {
		return nil, nil, fmt.Errorf("overlay: unknown selection model %q", req.Model)
	}
	return b.selectRanked(req, core.Request{
		Kind:      core.RequestKind(req.Kind),
		SizeBytes: req.SizeBytes,
		WorkUnits: req.WorkUnits,
		Now:       b.host.Now(),
	}, sel, pure)
}

func (b *Broker) handleReportTransfer(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodeReportTransfer(d)
	if err != nil {
		return
	}
	ps := b.shardOf(rep.Peer).registry.Peer(rep.Peer)
	ps.RecordFileSent(rep.OK)
	ps.RecordTransferOutcome(rep.Cancelled)
	if rep.OK {
		ps.ObserveTransferRate(rep.Bytes, rep.Duration)
	}
	if rep.PetitionDelay > 0 {
		ps.ObservePetitionDelay(rep.PetitionDelay)
	}
	// Origin attribution: the originating peer's record (in its own shard)
	// counts the transmission launch it sourced — launch-level, mirroring
	// the sink-side RecordFileSent above. Under multi-source workloads the
	// sink-side statistics no longer imply "from the controller"; this is
	// the origin-side half of the picture. The source is taken from the
	// reporting conn's remote address — authoritative, and free of wire
	// format (hence timing) impact on the paper's figures.
	if from := conn.Remote().Node(); from != "" {
		b.shardOf(from).registry.Peer(from).RecordTransferOriginated(rep.OK, rep.Bytes)
	}
	conn.Send(ackFrame)
}

// handlePieceReport folds a disseminating peer's piece inventory and choke
// state into its advertisement attributes and renews the lease — the same
// resurrection discipline as a stats report, so a late report under churn
// rebuilds the entry instead of dropping it. Stats heartbeats preserve
// attributes on lease renewal (they Publish the looked-up advertisement),
// so inventory survives the renewal traffic between piece reports.
func (b *Broker) handlePieceReport(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodePieceReport(d)
	if err != nil {
		return
	}
	sh := b.shardOf(rep.Peer)
	adv, _ := b.leaseOf(sh, rep.Peer, conn)
	var have strings.Builder
	for i, p := range rep.Have {
		if i > 0 {
			have.WriteByte(',')
		}
		have.WriteString(strconv.Itoa(p))
	}
	adv = adv.WithAttr(jxta.AttrPieces, have.String())
	adv = adv.WithAttr(jxta.AttrUnchoked, strings.Join(rep.Unchoked, ","))
	b.publish(sh, adv)
	conn.Send(ackFrame)
}

func (b *Broker) handleReportTask(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodeReportTask(d)
	if err != nil {
		return
	}
	ps := b.shardOf(rep.Peer).registry.Peer(rep.Peer)
	ps.RecordTaskOffer(rep.Accepted)
	if rep.Accepted {
		ps.RecordTaskExecution(rep.OK, rep.SecondsPerUnit)
	}
	conn.Send(ackFrame)
}

func (b *Broker) handleReportMessage(conn *pipe.Conn, d *wire.Decoder) {
	rep, err := decodeReportMessage(d)
	if err != nil {
		return
	}
	b.shardOf(rep.Peer).registry.Peer(rep.Peer).RecordMessage(rep.OK)
	conn.Send(ackFrame)
}
