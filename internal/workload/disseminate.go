package workload

import (
	"cmp"
	"fmt"
	"iter"
	"math/bits"
	"slices"
	"strconv"
	"strings"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/scenario"
	"peerlab/internal/transfer"
)

// The dissemination engine's fixed knobs. They are protocol constants, not
// tuning surface: changing any of them changes the virtual-time event
// stream of every dissemination golden.
const (
	// unchokeSlots is how many interested peers a holder serves per round
	// under tit-for-tat: the top slots-1 by observed delivery rate plus one
	// deterministic optimistic unchoke.
	unchokeSlots = 4
	// piecesPerRound caps how many pieces one downloader fetches per round.
	piecesPerRound = 2
	// uploadsPerRound caps how many piece-sends one holder originates per
	// round — enough for a full unchoke set to draw its full allotment.
	uploadsPerRound = unchokeSlots * piecesPerRound
	// roundGap/maxRoundGap pace the rounds: the gap starts small, doubles
	// across dry rounds (a churn downtime must not burn thousands of empty
	// discovery cycles), and resets on progress.
	roundGap    = time.Second
	maxRoundGap = 32 * time.Second
	// maxDryRounds ends a swarm that stopped moving pieces: at the capped
	// gap this outlasts any churn downtime the scenarios draw, so it only
	// fires for permanently departed downloaders.
	maxDryRounds = 24
	// streamStartup and streamPlayRate shape streaming mode's playback
	// deadline curve: playback begins streamStartup after the run starts
	// and consumes bytes at streamPlayRate (3 Mbit/s video).
	streamStartup  = 15 * time.Second
	streamPlayRate = 375_000.0 // bytes per second
)

// PairBytes is the payload volume one ordered (uploader, downloader) pair
// moved across the whole run. From is "" when the uploader is the control
// node (the same convention as Flow.Source).
type PairBytes struct {
	From  string
	To    string
	Bytes int64
}

// Outcome is Run's cell-level result: Results in flow order plus, from the
// piece engine, the peer-pair throughput matrix the bandwidth-clustering
// figure is built from (the single-round executor leaves both piece fields
// zero).
type Outcome struct {
	Results []Result
	// PairBytes lists every pair that moved bytes, in canonical
	// (uploader, downloader) index order — control first, then flow order.
	PairBytes []PairBytes
}

// chokeDraw is the optimistic-unchoke draw for (holder, round): a pure
// SplitMix64 function of the cell seed and the two coordinates, folded
// through a tag so it cannot collide with flow-payload or churn streams.
// Holder -1 is the control node.
func chokeDraw(seed int64, holder, round int) uint64 {
	return scenario.Mix64(scenario.Mix64(uint64(seed)) ^ 0xc40cea1 ^ uint64(holder+1)<<24 ^ uint64(round))
}

// pieceTieRank is rarest-first's deterministic stand-in for BitTorrent's
// "random among rarest": a seed-pure per-(downloader, piece) permutation
// breaking rarity ties, per downloader (DESIGN.md "Dissemination &
// incentives" says why).
func pieceTieRank(seed int64, dl, piece int) uint64 {
	return scenario.Mix64(scenario.Mix64(uint64(seed)) ^ 0x9a9e57 ^ uint64(dl)<<32 ^ uint64(piece))
}

// dissemPeer is the driver-side record of one downloader; what it holds
// lives in the swarm.
type dissemPeer struct {
	label, host     string
	firstAt, lastAt time.Time   // bracket the download (receiver-local delivery times)
	arrivals        []time.Time // each piece's delivery instant (streaming deadlines)
	fetchFails      int         // failed fetch groups (this peer as receiver)
	uploads         int         // pieces this peer re-originated
}

// ExecuteDisseminate runs the piece-level dissemination workload: the
// control node holds the whole payload, every flow names one downloader,
// and rounds of piece exchange, planned from the state advertised through
// the broker, move the payload until every live downloader holds it all.
// choke states the reciprocity rule, planRound the picking and partner rules.
func ExecuteDisseminate(env Env, d Dissemination, flows []Flow, seed int64) (Outcome, error) {
	d = d.withDefaults()
	if len(flows) == 0 {
		return Outcome{}, fmt.Errorf("workload: dissemination with no flows")
	}
	if env.Control == nil {
		return Outcome{}, fmt.Errorf("workload: dissemination needs a control client to seed the swarm")
	}
	payload := transfer.NewVirtualFile(flows[0].FileName, flows[0].SizeBytes, FlowSeed(seed, 0))
	pieceCount, err := payload.Parts(flows[0].Parts)
	if err != nil {
		return Outcome{}, fmt.Errorf("workload: dissemination payload: %w", err)
	}

	n := len(flows)
	s := newSwarm(n, pieceCount)
	peers := make([]dissemPeer, n)
	hostIdx := make(map[string]int, n)
	for i, f := range flows {
		peers[i] = dissemPeer{label: f.Sink, host: env.HostOf(f.Sink), arrivals: make([]time.Time, pieceCount)}
		hostIdx[peers[i].host] = i
	}

	// readLive snapshots which downloaders are up right now. Membership moves
	// whenever the driver blocks, so a snapshot holds until the next call into
	// the overlay and no longer: one per holder's choke decision (the previous
	// holder's report blocked), never one per round; one per plan. It scans
	// only when the membership count moved since its last scan: a static map
	// counts no change, so it is scanned once.
	live, scanned, members := make([]bool, n), -1, env.members
	if members == nil {
		members = new(int)
	}
	readLive := func() {
		if *members == scanned {
			return
		}
		scanned = *members
		for q := range peers {
			live[q] = env.Clients[peers[q].label] != nil
		}
	}
	// Reused across rounds: ReportPieces encodes before it blocks.
	var holders, haveIdx []int
	var unchokedHosts []string
	type result struct {
		m   transfer.Metrics
		err error
	}
	var results []result

	start := env.Host.Now()
	gap, dry, rounds := roundGap, 0, 0
	for ; s.missing > 0 && dry < maxDryRounds; rounds++ {
		if rounds > 0 {
			env.Host.Sleep(gap)
		}

		// Holders publish inventory and choke state through the broker —
		// control first, then downloaders in flow order.
		readLive()
		holders = append(holders[:0], -1)
		for q := 0; q < n; q++ {
			if s.got[q+1] > 0 && live[q] {
				holders = append(holders, q)
			}
		}
		for _, h := range holders {
			readLive()
			haveIdx, unchokedHosts = haveIdx[:0], unchokedHosts[:0]
			for _, q := range s.choke(d.Choke, h, rounds, seed, live) {
				unchokedHosts = append(unchokedHosts, peers[q].host)
			}
			for p := range bitsOf(s.inv(h)) {
				haveIdx = append(haveIdx, p)
			}
			client := env.Control
			if h >= 0 {
				client = env.Clients[peers[h].label]
			}
			if client != nil {
				// A failed report is a holder silent this round: the
				// directory keeps its last state.
				_ = client.ReportPieces(haveIdx, unchokedHosts)
			}
		}

		// The driver reads the swarm state back from the broker: the
		// directory — not private driver state — names who holds and who
		// unchokes, so the broker's canonical cross-shard merge is on the
		// deterministic path, exactly like selection.
		advs, _ := env.Control.Discover() // no answer, no advertisements: a dry round
		s.readDirectory(advs, env.Control.Name(), hostIdx)
		readLive()
		assigns := s.planRound(d, seed, live)
		if len(assigns) == 0 {
			dry, gap = dry+1, min(2*gap, maxRoundGap)
			continue
		}

		// One SendPieces per (holder, downloader) group, spawned in
		// canonical order, joined positionally into the reused results.
		results = append(results[:0], make([]result, len(assigns))...)
		join := env.Host.NewQueue()
		for gi, g := range assigns {
			env.Host.Go(func() {
				src := env.Control
				if g.holder >= 0 {
					src = env.Clients[peers[g.holder].label]
				}
				if src == nil {
					results[gi].err = fmt.Errorf("holder departed")
				} else {
					r := &results[gi]
					r.err = src.SendPieces(peers[g.dl].host, payload, pieceCount, g.pieces, &r.m)
				}
				join.Push(gi)
			})
		}
		for range assigns {
			if _, err := join.Pop(); err != nil {
				return Outcome{}, fmt.Errorf("workload: dissemination join queue: %w", err)
			}
		}

		progress := false
		for gi, g := range assigns {
			q := &peers[g.dl]
			r := results[gi]
			if r.err != nil {
				q.fetchFails++
				if q.fetchFails == Attempts {
					warn(env.Logf, "workload: WARNING: flow %d (%s): piece fetches exhausted the %d-relaunch budget: %v",
						flows[g.dl].Index, q.label, Attempts, r.err)
				}
				continue
			}
			progress = true
			for _, pt := range r.m.Parts {
				if !s.deliver(g.dl, pt.Index) {
					continue
				}
				q.arrivals[pt.Index] = pt.Delivered
				if q.firstAt.IsZero() || pt.Delivered.Before(q.firstAt) {
					q.firstAt = pt.Delivered
				}
				if pt.Delivered.After(q.lastAt) {
					q.lastAt = pt.Delivered
				}
			}
			if g.holder >= 0 {
				peers[g.holder].uploads += len(g.pieces)
			}
			s.credit(g.holder, g.dl, int64(r.m.TotalBytes), r.m.TransmissionTime().Seconds())
		}
		if progress {
			dry, gap = 0, roundGap
		} else {
			dry, gap = dry+1, min(2*gap, maxRoundGap)
		}
	}

	out := Outcome{Results: make([]Result, n)}
	spacing := time.Duration(float64(payload.Size) / float64(pieceCount) / streamPlayRate * float64(time.Second))
	for i, f := range flows {
		q, got := &peers[i], s.got[i+1]
		var bytes int
		for p := range bitsOf(s.inv(i)) {
			bytes += payload.Part(pieceCount, p).Size
		}
		res := Result{Flow: f, Sink: f.Sink, SelectedAt: start, Pieces: got, ReOriginated: q.uploads > 0}
		res.Metrics = transfer.Metrics{
			Peer:             q.host,
			FileName:         payload.Name,
			TotalBytes:       bytes,
			Granularity:      pieceCount,
			PetitionSent:     start,
			PetitionReceived: q.firstAt,
			PetitionAcked:    q.firstAt,
			Done:             q.lastAt,
			Attempts:         1 + q.fetchFails,
		}
		if got > 0 {
			res.Metrics.Parts = []transfer.PartTiming{{
				Size: bytes, Started: q.firstAt, Delivered: q.lastAt, Confirmed: q.lastAt,
			}}
		}
		if d.Stream {
			res.Stalls = countStalls(start, spacing, q.arrivals)
		}
		if got < pieceCount {
			err := fmt.Errorf("incomplete: %d of %d pieces after %d rounds (departed?)", got, pieceCount, rounds)
			if !env.recordFailures {
				return Outcome{}, fmt.Errorf("workload: flow %d (%s): %w", f.Index, q.label, err)
			}
			res.Metrics.Failed = true
			res.Err = err.Error()
		}
		out.Results[i] = res
	}
	out.PairBytes = s.pairBytes(peers)
	return out, nil
}

// swarm is the piece engine's state for one run, flat: holder h (-1 the
// origin) is row h+1 of every per-holder table, downloader q column or bit q.
// A round reads it in passes over contiguous rows, and the scratch at the
// bottom is reused by every holder of every round.
type swarm struct {
	n, pieces int
	pw, rw    int // words in a piece bitset and in a bitset of holder rows
	missing   int // downloaders still short of a piece

	// have row h+1 is holder h's inventory (row 0, the origin's, is full);
	// got counts its bits. q is interested in h when inv(h) &^ inv(q) != 0.
	have []uint64
	got  []int
	// Only the pairs that moved bytes are kept, as rows sorted by the other
	// end's index: sent[h+1] holds what holder h delivered to each downloader
	// and the rate it observed, recv[q] the rate q observed from each holder,
	// so either tit-for-tat ranking reads one row. An absent pair has rate 0.
	// Rows grow in slab, carved in chunks; rateOf, zero between rankings,
	// holds the ranked row's rates at column peer+1.
	sent, recv [][]pair
	slab       []pair
	rateOf     []float64
	// The directory as last read back: holder h advertises the pieces in row
	// h+1 of advHas, and row q of grantedBy has a bit for every holder row
	// that unchoked downloader q.
	advertised        []bool
	advHas, grantedBy []uint64

	interested, granters, rarity, slots []int // slots: uploads assigned per holder row
	unchoked                            [unchokeSlots]int
	avail                               []uint64
	cands                               []pieceCand
}

func newSwarm(n, pieces int) *swarm {
	pw, rw := (pieces+63)/64, (n+64)/64
	s := &swarm{
		n: n, pieces: pieces, pw: pw, rw: rw, missing: n + 1, // the origin's row fills below
		have: make([]uint64, (n+1)*pw), got: make([]int, n+1),
		sent: make([][]pair, n+1), recv: make([][]pair, n), rateOf: make([]float64, n+1),
		advertised: make([]bool, n+1), advHas: make([]uint64, (n+1)*pw), grantedBy: make([]uint64, n*rw),
		interested: make([]int, 0, n), rarity: make([]int, pieces), slots: make([]int, n+1), avail: make([]uint64, pw),
		granters: make([]int, 0, n+1), cands: make([]pieceCand, 0, pieces),
	}
	for p := 0; p < pieces; p++ {
		s.deliver(-1, p)
	}
	return s
}

// inv is holder h's inventory (h = -1 is the origin).
func (s *swarm) inv(h int) []uint64 { return s.have[(h+1)*s.pw : (h+2)*s.pw] }

// deliver marks piece p held by downloader q; false when q already had it.
func (s *swarm) deliver(q, p int) bool {
	w, bit := &s.inv(q)[p>>6], uint64(1)<<(p&63)
	if *w&bit != 0 {
		return false
	}
	*w |= bit
	if s.got[q+1]++; s.got[q+1] == s.pieces {
		s.missing--
	}
	return true
}

// pair is a row's record of one partner: its index (-1 the origin), the rate
// between the two, and in a sent row the bytes and seconds it comes from.
type pair struct {
	peer       int
	bytes      int64
	secs, rate float64
}

// credit records that holder h moved bytes to downloader q in secs, and
// restates the delivery rate q observed from h in both rows.
func (s *swarm) credit(h, q int, bytes int64, secs float64) {
	p := s.pairOf(&s.sent[h+1], q)
	p.bytes += bytes
	p.secs += secs
	r, over := 0.0, p.secs
	if over <= 0 {
		over = 1e-9 // delivered inside one clock tick
	}
	if p.bytes != 0 {
		r = float64(p.bytes) / over
	}
	p.rate = r
	s.pairOf(&s.recv[q], h).rate = r
}

// pairOf returns row's record for peer, inserting a zero one in order when
// there is none. A full row moves to the slab with twice its room.
func (s *swarm) pairOf(row *[]pair, peer int) *pair {
	i, ok := slices.BinarySearchFunc(*row, peer, func(p pair, k int) int { return cmp.Compare(p.peer, k) })
	if !ok {
		if r := *row; len(r) == cap(r) {
			c := max(2*cap(r), 4) // a row starts with room for 4
			if len(s.slab) < c {
				s.slab = make([]pair, max(c, 16*(s.n+1))) // a chunk: 16 a row
			}
			*row, s.slab = append(s.slab[:0:c], r...), s.slab[c:]
		}
		*row = slices.Insert(*row, i, pair{peer: peer})
	}
	return &(*row)[i]
}

// pairBytes lists every pair that moved bytes in canonical order: the
// origin's row first (From ""), then each holder's in flow order, downloaders
// ascending.
func (s *swarm) pairBytes(peers []dissemPeer) []PairBytes {
	var out []PairBytes
	for row, sent := range s.sent {
		from := ""
		if row > 0 {
			from = peers[row-1].label
		}
		for _, p := range sent {
			if p.bytes > 0 {
				out = append(out, PairBytes{From: from, To: peers[p.peer].label, Bytes: p.bytes})
			}
		}
	}
	return out
}

// bitsOf yields the indices of a bitset's set bits in ascending order.
func bitsOf(set []uint64) iter.Seq[int] {
	return func(yield func(int) bool) {
		for w, m := range set {
			for ; m != 0; m &= m - 1 {
				if !yield(w<<6 + bits.TrailingZeros64(m)) {
					return
				}
			}
		}
	}
}

// chokeCand is one interested peer in a tit-for-tat ranking.
type chokeCand struct {
	pos, q int // position among the interested, downloader index
	rate   float64
	tie    uint64
	tied   bool // tie is computed
}

// before reports whether a outranks b: rate descending, then a seed-pure
// per-(holder, round, peer) draw off the holder's chokeDraw that rotates per
// round, then index. The draw is hashed only when two rates tie, and kept,
// so a peer costs at most one hash per ranking.
func (a *chokeCand) before(b *chokeCand, draw uint64) bool {
	if a.rate != b.rate {
		return a.rate > b.rate
	}
	for _, c := range [2]*chokeCand{a, b} {
		if !c.tied {
			c.tie, c.tied = scenario.Mix64(draw^uint64(c.q+1)<<16), true
		}
	}
	if a.tie != b.tie {
		return a.tie < b.tie
	}
	return a.q < b.q
}

// choke computes holder h's unchoke set for a round, as ascending downloader
// indices in scratch the next call overwrites. Interested means: live (as of
// the caller's snapshot), not the holder, and missing a piece the holder
// has. choke=none serves every interested peer; choke=tft the ranking
// DESIGN.md "Dissemination & incentives" states, in one pass.
func (s *swarm) choke(policy string, h, round int, seed int64, live []bool) []int {
	has, in := s.inv(h), s.interested[:0]
	for q := 0; q < s.n; q++ {
		if q == h || !live[q] || s.got[q+1] == s.pieces {
			continue
		}
		for w, m := range s.inv(q) {
			if has[w]&^m != 0 {
				in = append(in, q)
				break
			}
		}
	}
	if policy == "none" {
		return in
	}
	// A complete holder ranks by the rate it delivered at, a leeching one by
	// the rate it received at: that row, spread into rateOf for the ranking.
	rates := s.sent[h+1]
	if s.got[h+1] < s.pieces {
		rates = s.recv[h]
	}
	draw := chokeDraw(seed, h, round)
	var top [unchokeSlots - 1]chokeCand
	k := 0
	for _, p := range rates {
		s.rateOf[p.peer+1] = p.rate
	}
	for pos, q := range in {
		c, i := chokeCand{pos: pos, q: q, rate: s.rateOf[q+1]}, k
		for i > 0 && c.before(&top[i-1], draw) {
			i--
		}
		if i < len(top) {
			k = min(k+1, len(top))
			copy(top[i+1:k], top[i:])
			top[i] = c
		}
	}
	for _, p := range rates {
		s.rateOf[p.peer+1] = 0
	}
	out := s.unchoked[:0]
	for _, c := range top[:k] {
		out = append(out, c.pos)
	}
	// The optimistic slot is the draw-th interested peer not already chosen:
	// step the draw over the chosen positions instead of building the rest.
	if rest := len(in) - k; rest > 0 {
		slices.Sort(out)
		r := int(draw % uint64(rest))
		for _, pos := range out {
			if pos <= r {
				r++
			}
		}
		out = append(out, r)
	}
	slices.Sort(out)
	for i, pos := range out {
		out[i] = in[pos]
	}
	return out
}

// readDirectory replaces the advertised state with what the broker's
// directory says now. Entries of peers outside the swarm, entries without
// an inventory and fields that name no piece or no member are skipped; of
// two entries under one name the later stands.
func (s *swarm) readDirectory(advs []jxta.Advertisement, ctlHost string, hostIdx map[string]int) {
	clear(s.advertised)
	clear(s.grantedBy)
	for _, adv := range advs {
		row := 0
		if adv.Name != ctlHost {
			q, ok := hostIdx[adv.Name]
			if !ok {
				continue
			}
			row = q + 1
		}
		pieces := adv.Attr(jxta.AttrPieces)
		if pieces == "" {
			continue
		}
		has, w, bit := s.advHas[row*s.pw:(row+1)*s.pw], row>>6, uint64(1)<<(row&63)
		clear(has)
		if s.advertised[row] { // a second entry under this name: drop the first one's grants
			for q := range s.n {
				s.grantedBy[q*s.rw+w] &^= bit
			}
		}
		s.advertised[row] = true
		// The attributes are client-chosen: a bounded parse, so a field of too
		// many digits names no piece instead of wrapping round to one never held.
		for f, rest, more := "", pieces, true; more; {
			f, rest, more = strings.Cut(rest, ",")
			if p, err := strconv.ParseUint(f, 10, 16); err == nil && int(p) < s.pieces {
				has[p>>6] |= 1 << (p & 63)
			}
		}
		for name, rest, more := "", adv.Attr(jxta.AttrUnchoked), true; more; {
			name, rest, more = strings.Cut(rest, ",")
			if q, ok := hostIdx[name]; ok {
				s.grantedBy[q*s.rw+w] |= bit
			}
		}
	}
}

// roundAssign is one group of pieces a holder owes a downloader this round.
type roundAssign struct {
	holder int // -1 = control
	dl     int
	pieces []int
}

// pieceCand is one piece a downloader could fetch this round, with its
// rarest-first sort key (zero under sequential picking: index order stands).
type pieceCand struct {
	piece, rarity int
	tie           uint64
}

// planRound computes the round's piece assignments from the advertised
// swarm state: each incomplete live downloader, in flow order, picks up to
// piecesPerRound pieces by its policy from the holders that unchoked it,
// each landing on the least loaded eligible holder, a peer before the
// origin, then the lowest index. It allocates what it returns and nothing
// else.
func (s *swarm) planRound(d Dissemination, seed int64, live []bool) []roundAssign {
	n, pw := s.n, s.pw
	holding := func(row int) bool { return s.advertised[row] && (row == 0 || live[row-1]) }
	clear(s.rarity)
	clear(s.slots)
	for row := 0; row <= n; row++ {
		if holding(row) {
			for p := range bitsOf(s.advHas[row*pw : (row+1)*pw]) {
				s.rarity[p]++
			}
		}
	}
	out := make([]roundAssign, 0, n)
	for q := 0; q < n; q++ {
		if !live[q] || s.got[q+1] == s.pieces {
			continue
		}
		granters := s.granters[:0]
		for row := range bitsOf(s.grantedBy[q*s.rw : (q+1)*s.rw]) {
			if row != q+1 && holding(row) {
				granters = append(granters, row)
			}
		}
		// What q can fetch: the pieces it lacks that some granting holder
		// with an upload slot left advertises.
		clear(s.avail)
		for _, row := range granters {
			if s.slots[row] < uploadsPerRound {
				for w, m := range s.advHas[row*pw : (row+1)*pw] {
					s.avail[w] |= m
				}
			}
		}
		cands := s.cands[:0]
		for w, m := range s.inv(q) {
			s.avail[w] &^= m
		}
		for p := range bitsOf(s.avail) {
			c := pieceCand{piece: p}
			if d.Pick != "sequential" {
				c.rarity, c.tie = s.rarity[p], pieceTieRank(seed, q, p)
			}
			cands = append(cands, c)
		}
		if d.Pick != "sequential" {
			slices.SortFunc(cands, func(a, b pieceCand) int {
				return cmp.Or(cmp.Compare(a.rarity, b.rarity), cmp.Compare(a.tie, b.tie), cmp.Compare(a.piece, b.piece))
			})
		}
		first, taken := len(out), 0
		for _, c := range cands {
			if taken == piecesPerRound {
				break
			}
			best, bestKey := -1, 0 // key: load, then row with the origin's 0 last
			for _, row := range granters {
				if s.slots[row] >= uploadsPerRound || s.advHas[row*pw+c.piece>>6]>>(c.piece&63)&1 == 0 {
					continue
				}
				if key := s.slots[row]*(n+1) + (row+n)%(n+1); best < 0 || key < bestKey {
					best, bestKey = row, key
				}
			}
			if best < 0 {
				continue
			}
			g := first
			for g < len(out) && out[g].holder != best-1 {
				g++
			}
			if g == len(out) {
				out = append(out, roundAssign{holder: best - 1, dl: q, pieces: make([]int, 0, piecesPerRound)})
			}
			out[g].pieces = append(out[g].pieces, c.piece)
			s.slots[best]++
			taken++
		}
	}
	return out
}

// countStalls plays the pieces back against the streaming deadline curve:
// playback starts streamStartup after the run begins and consumes one piece
// per spacing; a missing or late piece stalls playback (one stall), and a
// late arrival rebases the clock — rebuffering, as in Rodrigues' on-demand
// model.
func countStalls(start time.Time, spacing time.Duration, arrivals []time.Time) int {
	pos := start.Add(streamStartup)
	stalls := 0
	for _, at := range arrivals {
		if at.IsZero() {
			stalls++
			continue
		}
		if at.After(pos) {
			stalls++
			pos = at
		}
		pos = pos.Add(spacing)
	}
	return stalls
}
