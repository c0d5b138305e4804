package workload

import (
	"fmt"
	"sort"
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
	// Rounds is how many exchange rounds the swarm ran.
	Rounds int
}

// chokeDraw is the optimistic-unchoke draw for (holder, round): a pure
// SplitMix64 function of the cell seed and the two coordinates, folded
// through a tag so it cannot collide with flow-payload or churn streams.
// Holder -1 is the control node.
func chokeDraw(seed int64, holder, round int) uint64 {
	return scenario.Mix64(scenario.Mix64(uint64(seed)) ^ 0xc40cea1 ^ uint64(holder+1)<<24 ^ uint64(round))
}

// chokeTieRank breaks rate ties in a holder's tit-for-tat ranking: a
// seed-pure per-(holder, round, peer) draw. It must rotate per round — a
// static tie order (peer index, say) would have every holder unchoke the
// same few peers while rates are still unobserved, the rest would never get
// a chance to demonstrate their rates, and reciprocity would never latch
// onto actual bandwidth (the clustering figure flatlines at random mixing).
func chokeTieRank(seed int64, holder, round, q int) uint64 {
	return scenario.Mix64(chokeDraw(seed, holder, round) ^ uint64(q+1)<<16)
}

// pieceTieRank is rarest-first's deterministic stand-in for BitTorrent's
// "random among rarest": a seed-pure per-(downloader, piece) permutation
// breaking rarity ties. It must differ per downloader — a global tie order
// would have every downloader fetch the same pieces each round, inventories
// would never diverge, and no peer would ever hold a piece another lacks
// (the swarm degenerates to a fanout from the origin).
func pieceTieRank(seed int64, dl, piece int) uint64 {
	return scenario.Mix64(scenario.Mix64(uint64(seed)) ^ 0x9a9e57 ^ uint64(dl)<<32 ^ uint64(piece))
}

// dissemPeer is the driver-side model of one downloader.
type dissemPeer struct {
	label string
	host  string
	have  []bool
	got   int
	// firstAt/lastAt bracket the download (receiver-local delivery times).
	firstAt, lastAt time.Time
	// arrivals records each piece's delivery instant (streaming deadlines).
	arrivals []time.Time
	// fetchFails counts failed fetch groups (this peer as receiver).
	fetchFails int
	// uploads counts pieces this peer re-originated.
	uploads int
}

// ExecuteDisseminate runs the piece-level dissemination workload: the
// control node holds the whole payload, every flow names one downloader,
// and rounds of piece exchange — inventory and choke state advertised
// through the broker, picks and partner choice computed from that shared
// view — move the payload until every live downloader holds it all. All
// draws derive from (seed, coordinates) via SplitMix64 and all iteration is
// in canonical index order, so the event stream is byte-identical at any
// worker or shard count.
//
// Reciprocity: under choke=tft each holder serves only the interested
// peers it unchoked — the top unchokeSlots-1 by the delivery rate that
// holder observed from them while leeching, or by how fast each peer
// absorbs its uploads once it holds everything (the seeder rule; the origin
// always ranks this way) — plus one optimistic unchoke rotated by
// chokeDraw. Under choke=none every interested peer is served. Partner
// choice among eligible holders is policy-neutral (least-loaded, peers
// before the origin, then index order), so bandwidth clustering in the
// pair matrix can only come from the choking policy itself.
func ExecuteDisseminate(env Env, d Dissemination, flows []Flow, seed int64) (Outcome, error) {
	d = d.withDefaults()
	if len(flows) == 0 {
		return Outcome{}, fmt.Errorf("workload: dissemination with no flows")
	}
	if env.Control == nil {
		return Outcome{}, fmt.Errorf("workload: dissemination needs a control client to seed the swarm")
	}
	payload := transfer.NewVirtualFile(flows[0].FileName, flows[0].SizeBytes, FlowSeed(seed, 0))
	split, err := transfer.Split(payload, flows[0].Parts)
	if err != nil {
		return Outcome{}, fmt.Errorf("workload: dissemination payload: %w", err)
	}
	pieceCount := len(split)

	n := len(flows)
	peers := make([]*dissemPeer, n)
	hostIdx := make(map[string]int, n)
	for i, f := range flows {
		peers[i] = &dissemPeer{
			label:    f.Sink,
			host:     env.hostOf(f.Sink),
			have:     make([]bool, pieceCount),
			arrivals: make([]time.Time, pieceCount),
		}
		hostIdx[peers[i].host] = i
	}
	ctlHost := env.Control.Name()

	// recvBytes/recvSecs[q][h+1]: what holder h delivered to downloader q
	// (h = -1 is the control node). Both sides of the tit-for-tat ranking
	// read from here.
	recvBytes := make([][]int64, n)
	recvSecs := make([][]float64, n)
	pairBytes := make([][]int64, n+1) // [h+1][q]
	for q := 0; q < n; q++ {
		recvBytes[q] = make([]int64, n+1)
		recvSecs[q] = make([]float64, n+1)
	}
	for h := range pairBytes {
		pairBytes[h] = make([]int64, n)
	}

	liveDL := func(q int) bool { return env.clientOf(peers[q].label) != nil }
	done := func() bool {
		for _, p := range peers {
			if p.got < pieceCount {
				return false
			}
		}
		return true
	}
	// recvRate is the delivery rate downloader dl observed from holder h
	// (h = -1 is the control node). Both directions of the tit-for-tat
	// ranking read it: a leeching holder scores q by recvRate(holder, q) —
	// reciprocity — while a complete holder scores q by recvRate(q, holder),
	// how fast q absorbs its uploads (BitTorrent's seeder rule; the physical
	// transfer rate is what discriminates bandwidth classes).
	recvRate := func(dl, h int) float64 {
		bytes, secs := recvBytes[dl][h+1], recvSecs[dl][h+1]
		if bytes == 0 {
			return 0
		}
		if secs <= 0 {
			secs = 1e-9
		}
		return float64(bytes) / secs
	}

	start := env.Host.Now()
	warns := new(RelaunchWarnings)
	gap := roundGap
	dry := 0
	rounds := 0
	for !done() && dry < maxDryRounds {
		if rounds > 0 {
			env.Host.Sleep(gap)
		}
		rounds++
		round := rounds - 1

		// Holders publish inventory and choke state through the broker —
		// control first, then downloaders in flow order.
		type holderState struct {
			idx      int // -1 = control
			has      []bool
			unchoked map[int]bool
		}
		var holders []holderState
		allHave := make([]bool, pieceCount)
		for i := range allHave {
			allHave[i] = true
		}
		holders = append(holders, holderState{idx: -1, has: allHave})
		for q := 0; q < n; q++ {
			if peers[q].got > 0 && liveDL(q) {
				holders = append(holders, holderState{idx: q, has: peers[q].have})
			}
		}
		for hi := range holders {
			h := &holders[hi]
			h.unchoked = unchokeSet(d.Choke, h.idx, round, seed, h.has, peers, liveDL, recvRate, pieceCount)
			var haveIdx []int
			for p := 0; p < pieceCount; p++ {
				if h.has[p] {
					haveIdx = append(haveIdx, p)
				}
			}
			var unchokedHosts []string
			for q := 0; q < n; q++ {
				if h.unchoked[q] {
					unchokedHosts = append(unchokedHosts, peers[q].host)
				}
			}
			client := env.Control
			if h.idx >= 0 {
				client = env.clientOf(peers[h.idx].label)
			}
			if client == nil {
				continue
			}
			if err := client.ReportPieces(haveIdx, unchokedHosts); err != nil {
				_ = err // silent this round: the directory keeps its last state
			}
		}

		// The driver reads the swarm state back from the broker: the
		// directory — not private driver state — names who holds and who
		// unchokes, so the broker's canonical cross-shard merge is on the
		// deterministic path, exactly like selection.
		advHas := make(map[int][]bool)    // holder idx (-1 control) → pieces
		advUnchoke := make(map[int][]int) // holder idx → unchoked downloader idxs
		advs, derr := env.Control.Discover()
		if derr != nil {
			advs = nil
		}
		for _, adv := range advs {
			h, ok := -1, adv.Name == ctlHost
			if !ok {
				h, ok = hostIdx[adv.Name]
				if !ok {
					continue
				}
			}
			pieces := adv.Attr(jxta.AttrPieces)
			if pieces == "" {
				continue
			}
			has := make([]bool, pieceCount)
			for _, p := range splitInts(pieces) {
				if p >= 0 && p < pieceCount {
					has[p] = true
				}
			}
			advHas[h] = has
			var unchoked []int
			for _, hn := range splitCSV(adv.Attr(jxta.AttrUnchoked)) {
				if q, ok := hostIdx[hn]; ok {
					unchoked = append(unchoked, q)
				}
			}
			advUnchoke[h] = unchoked
		}

		assigns := planRound(d, seed, peers, liveDL, advHas, advUnchoke, pieceCount)
		if len(assigns) == 0 {
			dry++
			if gap < maxRoundGap {
				gap *= 2
			}
			continue
		}

		// One SendPieces per (holder, downloader) group, spawned in
		// canonical order, joined positionally.
		type result struct {
			m   transfer.Metrics
			err error
		}
		results := make([]result, len(assigns))
		join := env.Host.NewQueue()
		for gi, g := range assigns {
			env.Host.Go(func() {
				src := env.Control
				if g.holder >= 0 {
					src = env.clientOf(peers[g.holder].label)
				}
				if src == nil {
					results[gi].err = fmt.Errorf("holder departed")
				} else {
					m, err := src.SendPieces(peers[g.dl].host, payload, pieceCount, g.pieces)
					results[gi] = result{m, err}
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
			q := peers[g.dl]
			r := results[gi]
			if r.err != nil {
				q.fetchFails++
				if q.fetchFails == Attempts && warns.First(flows[g.dl].Index) {
					env.logf("workload: WARNING: flow %d (%s): piece fetches exhausted the %d-relaunch budget: %v",
						flows[g.dl].Index, q.label, Attempts, r.err)
				}
				continue
			}
			progress = true
			for _, pt := range r.m.Parts {
				p := pt.Index
				if q.have[p] {
					continue
				}
				q.have[p] = true
				q.got++
				q.arrivals[p] = pt.Delivered
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
			pairBytes[g.holder+1][g.dl] += int64(r.m.TotalBytes)
			recvBytes[g.dl][g.holder+1] += int64(r.m.TotalBytes)
			recvSecs[g.dl][g.holder+1] += r.m.TransmissionTime().Seconds()
		}
		if progress {
			dry, gap = 0, roundGap
		} else {
			dry++
			if gap < maxRoundGap {
				gap *= 2
			}
		}
	}

	out := Outcome{Results: make([]Result, n), Rounds: rounds}
	spacing := time.Duration(float64(payload.Size) / float64(pieceCount) / streamPlayRate * float64(time.Second))
	for i, f := range flows {
		q := peers[i]
		res := Result{
			Flow:         f,
			Sink:         f.Sink,
			SelectedAt:   start,
			Pieces:       q.got,
			ReOriginated: q.uploads > 0,
		}
		var bytes int
		for p := 0; p < pieceCount; p++ {
			if q.have[p] {
				bytes += split[p].Size
			}
		}
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
		if q.got > 0 {
			res.Metrics.Parts = []transfer.PartTiming{{
				Size: bytes, Started: q.firstAt, Delivered: q.lastAt, Confirmed: q.lastAt,
			}}
		}
		if d.Stream {
			res.Stalls = countStalls(start, spacing, q.arrivals)
		}
		if q.got < pieceCount {
			err := fmt.Errorf("incomplete: %d of %d pieces after %d rounds (departed?)", q.got, pieceCount, rounds)
			if !env.RecordFailures {
				return Outcome{}, fmt.Errorf("workload: flow %d (%s): %w", f.Index, q.label, err)
			}
			res.Metrics.Failed = true
			res.Err = err.Error()
		}
		out.Results[i] = res
	}
	for h := -1; h < n; h++ {
		for q := 0; q < n; q++ {
			if b := pairBytes[h+1][q]; b > 0 {
				from := ""
				if h >= 0 {
					from = peers[h].label
				}
				out.PairBytes = append(out.PairBytes, PairBytes{From: from, To: peers[q].label, Bytes: b})
			}
		}
	}
	return out, nil
}

// unchokeSet computes holder h's unchoke set for a round. Interested means:
// live, not the holder, and missing at least one piece the holder has.
func unchokeSet(choke string, h, round int, seed int64, has []bool,
	peers []*dissemPeer, liveDL func(int) bool, recvRate func(dl, h int) float64,
	pieceCount int) map[int]bool {
	var interested []int
	for q := range peers {
		if q == h || !liveDL(q) || peers[q].got == pieceCount {
			continue
		}
		for p := 0; p < pieceCount; p++ {
			if has[p] && !peers[q].have[p] {
				interested = append(interested, q)
				break
			}
		}
	}
	set := make(map[int]bool, len(interested))
	if choke == "none" {
		for _, q := range interested {
			set[q] = true
		}
		return set
	}
	// Tit-for-tat: a leeching holder ranks by the rate it downloads from q
	// (reciprocity); a complete holder — the origin included — ranks by the
	// rate q absorbs its uploads (the seeder rule). Rate desc, ties by the
	// per-round rotation, then index asc.
	complete := h < 0 || peers[h].got == pieceCount
	score := func(q int) float64 {
		if complete {
			return recvRate(q, h)
		}
		return recvRate(h, q)
	}
	ranked := append([]int(nil), interested...)
	sort.Slice(ranked, func(a, b int) bool {
		qa, qb := ranked[a], ranked[b]
		ra, rb := score(qa), score(qb)
		if ra != rb {
			return ra > rb
		}
		ta, tb := chokeTieRank(seed, h, round, qa), chokeTieRank(seed, h, round, qb)
		if ta != tb {
			return ta < tb
		}
		return qa < qb
	})
	for i := 0; i < len(ranked) && i < unchokeSlots-1; i++ {
		set[ranked[i]] = true
	}
	var rest []int
	for _, q := range interested {
		if !set[q] {
			rest = append(rest, q)
		}
	}
	if len(rest) > 0 {
		sort.Ints(rest)
		set[rest[chokeDraw(seed, h, round)%uint64(len(rest))]] = true
	}
	return set
}

// roundAssign is one group of pieces a holder owes a downloader this round.
type roundAssign struct {
	holder int // -1 = control
	dl     int
	pieces []int
}

// planRound computes the round's piece assignments from the advertised
// swarm state: each incomplete live downloader, in flow order, picks up to
// piecesPerRound pieces by its policy from the holders that unchoked it,
// and each pick lands on the least-loaded eligible holder (peers before the
// origin, then index order — deliberately policy-neutral).
func planRound(d Dissemination, seed int64, peers []*dissemPeer,
	liveDL func(int) bool, advHas map[int][]bool, advUnchoke map[int][]int,
	pieceCount int) []roundAssign {
	n := len(peers)
	rarity := make([]int, pieceCount)
	unchokedBy := make(map[int]map[int]bool, len(advUnchoke))
	var holderIdxs []int
	for h := -1; h < n; h++ {
		has, ok := advHas[h]
		if !ok {
			continue
		}
		if h >= 0 && !liveDL(h) {
			continue
		}
		holderIdxs = append(holderIdxs, h)
		for p := 0; p < pieceCount; p++ {
			if has[p] {
				rarity[p]++
			}
		}
		m := make(map[int]bool, len(advUnchoke[h]))
		for _, q := range advUnchoke[h] {
			m[q] = true
		}
		unchokedBy[h] = m
	}

	slots := make(map[int]int, len(holderIdxs))
	grouped := make(map[[2]int]*roundAssign)
	var order [][2]int
	for q := 0; q < n; q++ {
		if !liveDL(q) || peers[q].got == pieceCount {
			continue
		}
		var cands []int
		for p := 0; p < pieceCount; p++ {
			if peers[q].have[p] {
				continue
			}
			for _, h := range holderIdxs {
				if h != q && advHas[h][p] && unchokedBy[h][q] && slots[h] < uploadsPerRound {
					cands = append(cands, p)
					break
				}
			}
		}
		if d.Pick == "sequential" {
			sort.Ints(cands)
		} else {
			sort.Slice(cands, func(a, b int) bool {
				pa, pb := cands[a], cands[b]
				if rarity[pa] != rarity[pb] {
					return rarity[pa] < rarity[pb]
				}
				ta, tb := pieceTieRank(seed, q, pa), pieceTieRank(seed, q, pb)
				if ta != tb {
					return ta < tb
				}
				return pa < pb
			})
		}
		taken := 0
		for _, p := range cands {
			if taken == piecesPerRound {
				break
			}
			best, found := 0, false
			for _, h := range holderIdxs {
				if h == q || !advHas[h][p] || !unchokedBy[h][q] || slots[h] >= uploadsPerRound {
					continue
				}
				if !found || holderLess(h, slots[h], best, slots[best]) {
					best, found = h, true
				}
			}
			if !found {
				continue
			}
			key := [2]int{best, q}
			g, ok := grouped[key]
			if !ok {
				g = &roundAssign{holder: best, dl: q}
				grouped[key] = g
				order = append(order, key)
			}
			g.pieces = append(g.pieces, p)
			slots[best]++
			taken++
		}
	}
	out := make([]roundAssign, 0, len(order))
	for _, key := range order {
		out = append(out, *grouped[key])
	}
	return out
}

// holderLess orders candidate holders: least loaded this round, then peers
// before the origin (re-origination is the point of the workload), then
// lowest index.
func holderLess(h, hSlots, best, bestSlots int) bool {
	if hSlots != bestSlots {
		return hSlots < bestSlots
	}
	if (h >= 0) != (best >= 0) {
		return h >= 0
	}
	return h < best
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

// splitInts parses a comma-joined index list (the AttrPieces encoding).
func splitInts(s string) []int {
	var out []int
	for _, f := range splitCSV(s) {
		v := 0
		ok := len(f) > 0
		for i := 0; i < len(f); i++ {
			if f[i] < '0' || f[i] > '9' {
				ok = false
				break
			}
			v = v*10 + int(f[i]-'0')
		}
		if ok {
			out = append(out, v)
		}
	}
	return out
}

// splitCSV splits on commas, dropping empty fields.
func splitCSV(s string) []string {
	var out []string
	for len(s) > 0 {
		i := 0
		for i < len(s) && s[i] != ',' {
			i++
		}
		if i > 0 {
			out = append(out, s[:i])
		}
		if i == len(s) {
			break
		}
		s = s[i+1:]
	}
	return out
}
