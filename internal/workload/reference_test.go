package workload

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strconv"
	"strings"
	"testing"

	"peerlab/internal/jxta"
	"peerlab/internal/scenario"
	"peerlab/internal/transfer"
)

// The piece engine's round written the plainest way — a map[int]bool sized
// to every interested peer, a full sort.Slice with the tie hashes inside the
// comparator, map[int]map[int]bool choke lookups and a map of assignment
// groups — kept as the oracle the production round must match set for set
// and assignment for assignment (TestRoundMatchesReference). The references
// own their peer model, their seed draws and their directory parser, so this
// file depends on nothing in the package but the protocol constants, the
// Dissemination options and the roundAssign record.

// refPeer is the reference's model of one downloader.
type refPeer struct {
	have []bool
	got  int
}

func refChokeDraw(seed int64, holder, round int) uint64 {
	return scenario.Mix64(scenario.Mix64(uint64(seed)) ^ 0xc40cea1 ^ uint64(holder+1)<<24 ^ uint64(round))
}

func refChokeTieRank(seed int64, holder, round, q int) uint64 {
	return scenario.Mix64(refChokeDraw(seed, holder, round) ^ uint64(q+1)<<16)
}

func refPieceTieRank(seed int64, dl, piece int) uint64 {
	return scenario.Mix64(scenario.Mix64(uint64(seed)) ^ 0x9a9e57 ^ uint64(dl)<<32 ^ uint64(piece))
}

// refUnchokeSet computes holder h's unchoke set for a round. Interested means:
// live, not the holder, and missing at least one piece the holder has.
func refUnchokeSet(choke string, h, round int, seed int64, has []bool,
	peers []*refPeer, liveDL func(int) bool, recvRate func(dl, h int) float64,
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
		ta, tb := refChokeTieRank(seed, h, round, qa), refChokeTieRank(seed, h, round, qb)
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
		set[rest[refChokeDraw(seed, h, round)%uint64(len(rest))]] = true
	}
	return set
}

// refPlanRound computes the round's piece assignments from the advertised
// swarm state: each incomplete live downloader, in flow order, picks up to
// piecesPerRound pieces by its policy from the holders that unchoked it,
// and each pick lands on the least-loaded eligible holder (peers before the
// origin, then index order — deliberately policy-neutral).
func refPlanRound(d Dissemination, seed int64, peers []*refPeer,
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
				ta, tb := refPieceTieRank(seed, q, pa), refPieceTieRank(seed, q, pb)
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
				if !found || refHolderLess(h, slots[h], best, slots[best]) {
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

// refHolderLess orders candidate holders: least loaded this round, then peers
// before the origin (re-origination is the point of the workload), then
// lowest index.
func refHolderLess(h, hSlots, best, bestSlots int) bool {
	if hSlots != bestSlots {
		return hSlots < bestSlots
	}
	if (h >= 0) != (best >= 0) {
		return h >= 0
	}
	return h < best
}

// refReadDirectory is the driver's read-back of the broker directory: who
// advertises which pieces and which unchoke grants, keyed by holder index
// (-1 is the control node).
func refReadDirectory(advs []jxta.Advertisement, ctlHost string, hostIdx map[string]int,
	pieceCount int) (advHas map[int][]bool, advUnchoke map[int][]int) {
	advHas = make(map[int][]bool)
	advUnchoke = make(map[int][]int)
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
		for _, p := range refSplitInts(pieces) {
			if p >= 0 && p < pieceCount {
				has[p] = true
			}
		}
		advHas[h] = has
		var unchoked []int
		for _, hn := range refSplitCSV(adv.Attr(jxta.AttrUnchoked)) {
			if q, ok := hostIdx[hn]; ok {
				unchoked = append(unchoked, q)
			}
		}
		advUnchoke[h] = unchoked
	}
	return advHas, advUnchoke
}

func refSplitInts(s string) []int {
	var out []int
	for _, f := range refSplitCSV(s) {
		v := 0
		ok := len(f) > 0
		for i := 0; i < len(f); i++ {
			if f[i] < '0' || f[i] > '9' {
				ok = false
				break
			}
			if v = v*10 + int(f[i]-'0'); v >= transfer.MaxPieces {
				// Not in the version this was copied from, which let a long
				// digit string wrap round to a small index: a fix the engine
				// and its oracle share.
				ok = false
				break
			}
		}
		if ok {
			out = append(out, v)
		}
	}
	return out
}

func refSplitCSV(s string) []string {
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

// prodRound is the production side of the comparison: the engine's state for
// one model swarm, driven through the same deliveries, liveness reads and
// directory contents as the reference.
type prodRound struct {
	*swarm
	live []bool
}

func newProdRound(n, pieces int) *prodRound {
	return &prodRound{swarm: newSwarm(n, pieces), live: make([]bool, n)}
}

// snapshot reads liveness the way the driver does: once, into a buffer.
func (p *prodRound) snapshot(liveDL func(int) bool) []bool {
	for q := range p.live {
		p.live[q] = liveDL(q)
	}
	return p.live
}

// choke is holder h's unchoke set as ascending downloader indices.
func (p *prodRound) choke(choke string, h, round int, seed int64, liveDL func(int) bool) []int {
	return p.swarm.choke(choke, h, round, seed, p.snapshot(liveDL))
}

// plan reads the directory back and plans the round.
func (p *prodRound) plan(d Dissemination, seed int64, liveDL func(int) bool,
	advs []jxta.Advertisement, ctlHost string, hostIdx map[string]int) []roundAssign {
	p.readDirectory(advs, ctlHost, hostIdx)
	return p.planRound(d, seed, p.snapshot(liveDL))
}

func sortedKeys(set map[int]bool) []int {
	out := make([]int, 0, len(set))
	for q := range set {
		out = append(out, q)
	}
	sort.Ints(out)
	return out
}

// roundCase is one seeded model swarm.
type roundCase struct {
	seed      int64
	n, pieces int
	d         Dissemination
	// zeroRates: deliveries move pieces but are never credited, so every
	// rate stays 0 and every ranking is decided by the tie rotation.
	zeroRates bool
	// churn: peers leave and rejoin between two holders' choke decisions,
	// reports get lost and leases of departed peers expire.
	churn bool
	// warm: the swarm starts mid-download — random inventories, a history of
	// credited deliveries — instead of with the origin as the only holder.
	warm bool
}

func (tc roundCase) String() string {
	return fmt.Sprintf("seed=%d n=%d pieces=%d pick=%s choke=%s zeroRates=%v churn=%v warm=%v",
		tc.seed, tc.n, tc.pieces, tc.d.Pick, tc.d.Choke, tc.zeroRates, tc.churn, tc.warm)
}

// roundCaseOf spreads the fuzzer's (or the table's) raw numbers over the
// case space: 16–512 peers, 1–64 pieces, both picks, both chokes.
func roundCaseOf(seed int64, n uint16, pieces, flags uint8) roundCase {
	tc := roundCase{
		seed:      seed,
		n:         16 + int(n)%497,
		pieces:    1 + int(pieces)%64,
		d:         Dissemination{Pick: "rarest", Choke: "tft"},
		zeroRates: flags&4 != 0,
		churn:     flags&8 != 0,
		warm:      flags&16 != 0,
	}
	if flags&1 != 0 {
		tc.d.Pick = "sequential"
	}
	if flags&2 != 0 {
		tc.d.Choke = "none"
	}
	return tc
}

// roundCoverage counts what the generator reached, so a generator that
// stopped producing the hard cases fails the test instead of passing it.
type roundCoverage struct {
	rounds, rateTies, zeroRateRankings, leftMidRound, staleHolders int
	saturatedHolders, splitPicks, doublePicks, lostReports         int
}

// checkRoundCase runs one model swarm for up to maxRounds rounds, asking the
// reference and the production engine for every holder's unchoke set and for
// the round's assignments, and returns the first difference.
func checkRoundCase(tc roundCase, maxRounds int, cov *roundCoverage) error {
	rng := rand.New(rand.NewSource(tc.seed))
	n, pc := tc.n, tc.pieces

	refPeers := make([]*refPeer, n)
	refBytes := make([][]int64, n)
	refSecs := make([][]float64, n)
	hosts := make([]string, n)
	hostIdx := make(map[string]int, n)
	live := make([]bool, n)
	for q := range refPeers {
		refPeers[q] = &refPeer{have: make([]bool, pc)}
		refBytes[q] = make([]int64, n+1)
		refSecs[q] = make([]float64, n+1)
		hosts[q] = fmt.Sprintf("sc%03d.example", q)
		hostIdx[hosts[q]] = q
		live[q] = !tc.churn || rng.Intn(8) != 0
	}
	const ctlHost = "control.example"
	refRate := func(dl, h int) float64 {
		bytes, secs := refBytes[dl][h+1], refSecs[dl][h+1]
		if bytes == 0 {
			return 0
		}
		if secs <= 0 {
			secs = 1e-9
		}
		return float64(bytes) / secs
	}
	liveDL := func(q int) bool { return live[q] }
	prod := newProdRound(n, pc)

	deliver := func(q, piece int) {
		if !refPeers[q].have[piece] {
			refPeers[q].have[piece] = true
			refPeers[q].got++
		}
		prod.deliver(q, piece)
	}
	// Rates come from a handful of byte counts and durations, so equal
	// nonzero rates — the tie the rotation must break — are the rule.
	credit := func(h, q, pieces int) {
		if tc.zeroRates {
			return
		}
		bytes, secs := int64(pieces)*int64(1+rng.Intn(2))*65536, float64(int(1)<<rng.Intn(3))
		if rng.Intn(32) == 0 {
			secs = 0 // a delivery inside one clock tick
		}
		refBytes[q][h+1] += bytes
		refSecs[q][h+1] += secs
		prod.credit(h, q, bytes, secs)
	}
	if tc.warm {
		for q := 0; q < n; q++ {
			share := rng.Intn(pc + 1)
			for _, piece := range rng.Perm(pc)[:share] {
				deliver(q, piece)
			}
			for i := rng.Intn(6); i > 0; i-- {
				credit(rng.Intn(n+1)-1, q, 1+rng.Intn(2))
			}
		}
	}

	// dir is the broker's directory: a holder's entry keeps its last report
	// until the next one lands or the lease goes.
	dir := make(map[int]jxta.Advertisement)
	advOf := func(name string, has []bool, unchoked []int) jxta.Advertisement {
		var pieces, names []string
		for piece, ok := range has {
			if ok {
				pieces = append(pieces, strconv.Itoa(piece))
			}
		}
		for _, q := range unchoked {
			names = append(names, hosts[q])
		}
		return jxta.Advertisement{Kind: jxta.AdvPeer, Name: name, Attrs: []jxta.Attr{
			{Key: "cpu", Value: "1.0"},
			{Key: jxta.AttrPieces, Value: strings.Join(pieces, ",")},
			{Key: jxta.AttrUnchoked, Value: strings.Join(names, ",")},
		}}
	}
	allHave := make([]bool, pc)
	for i := range allHave {
		allHave[i] = true
	}

	for round := 0; round < maxRounds; round++ {
		holders := []int{-1}
		for q := 0; q < n; q++ {
			if refPeers[q].got > 0 && live[q] {
				holders = append(holders, q)
			}
		}
		for hi, h := range holders {
			// The previous holder's report blocked: the world moved on.
			if tc.churn && hi > 0 && rng.Intn(4) == 0 {
				q := rng.Intn(n)
				live[q] = !live[q]
				if cov != nil && !live[q] {
					cov.leftMidRound++
				}
			}
			has := allHave
			if h >= 0 {
				has = refPeers[h].have
			}
			want := sortedKeys(refUnchokeSet(tc.d.Choke, h, round, tc.seed, has, refPeers, liveDL, refRate, pc))
			got := prod.choke(tc.d.Choke, h, round, tc.seed, liveDL)
			if len(want)+len(got) > 0 && !reflect.DeepEqual(got, want) {
				return fmt.Errorf("%v: round %d holder %d: unchoke set %v, reference %v", tc, round, h, got, want)
			}
			if cov != nil && hi < 2 && tc.d.Choke == "tft" {
				noteRanking(cov, h, h < 0 || refPeers[h].got == pc, want, refRate)
			}
			if h >= 0 && !live[h] {
				continue // departed since the round began: no client to report through
			}
			if tc.churn && rng.Intn(16) == 0 {
				if cov != nil {
					cov.lostReports++
				}
				continue
			}
			name := ctlHost
			if h >= 0 {
				name = hosts[h]
			}
			dir[h] = advOf(name, has, want)
		}

		// What Discover returns: the directory in name order, among entries
		// the driver must ignore or survive — peers outside the swarm,
		// swarm members that never reported, malformed attribute fields.
		advs := []jxta.Advertisement{
			{Kind: jxta.AdvPeer, Name: "bystander.example", Attrs: []jxta.Attr{{Key: jxta.AttrPieces, Value: "0"}}},
			{Kind: jxta.AdvPeer, Name: hosts[rng.Intn(n)] + ".idle"},
		}
		for h := -1; h < n; h++ {
			adv, ok := dir[h]
			if !ok {
				continue
			}
			if tc.churn && h >= 0 && !live[h] && rng.Intn(3) == 0 {
				delete(dir, h) // the lease of a departed peer ran out
				continue
			}
			if h >= 0 && rng.Intn(24) == 0 {
				adv.Attrs = append([]jxta.Attr(nil), adv.Attrs...)
				adv.Attrs[1].Value += ",,x7,+0,-0," + strconv.Itoa(pc) + ",-1,99999,18446744073709551616," + strconv.Itoa(rng.Intn(pc))
				adv.Attrs[2].Value += ",nobody.example,," + hosts[h] + "," + hosts[rng.Intn(n)]
				// And an earlier entry under the same name, which the later
				// one must replace whole.
				advs = append(advs, advOf(adv.Name, allHave, []int{rng.Intn(n), rng.Intn(n)}))
			}
			advs = append(advs, adv)
		}
		sort.SliceStable(advs, func(a, b int) bool { return advs[a].Name < advs[b].Name })

		advHas, advUnchoke := refReadDirectory(advs, ctlHost, hostIdx, pc)
		want := refPlanRound(tc.d, tc.seed, refPeers, liveDL, advHas, advUnchoke, pc)
		got := prod.plan(tc.d, tc.seed, liveDL, advs, ctlHost, hostIdx)
		if len(want)+len(got) > 0 && !reflect.DeepEqual(got, want) {
			return fmt.Errorf("%v: round %d: assignments differ\n got %v\nwant %v", tc, round, got, want)
		}
		if cov != nil {
			cov.rounds++
			notePlan(cov, want, advHas, live)
		}

		for _, g := range want {
			if (g.holder >= 0 && !live[g.holder]) || !live[g.dl] || rng.Intn(12) == 0 {
				continue // the fetch failed
			}
			for _, piece := range g.pieces {
				deliver(g.dl, piece)
			}
			credit(g.holder, g.dl, len(g.pieces))
		}
		done := true
		for q := range refPeers {
			done = done && (refPeers[q].got == pc || !live[q])
		}
		if done {
			break
		}
	}
	return nil
}

// noteRanking records whether a tit-for-tat ranking had to break a tie
// between equal nonzero rates, or ranked with nothing but zeros.
func noteRanking(cov *roundCoverage, h int, complete bool, set []int, rate func(dl, h int) float64) {
	seen := make(map[float64]bool)
	zeros := 0
	for _, q := range set {
		var r float64
		if complete {
			r = rate(q, h)
		} else {
			r = rate(h, q)
		}
		if r == 0 {
			zeros++
		} else if seen[r] {
			cov.rateTies++
			return
		}
		seen[r] = true
	}
	if zeros > 1 && zeros == len(set) {
		cov.zeroRateRankings++
	}
}

// notePlan records the planner cases a round's assignments show.
func notePlan(cov *roundCoverage, assigns []roundAssign, advHas map[int][]bool, live []bool) {
	for h := range advHas {
		if h >= 0 && !live[h] {
			cov.staleHolders++
			break
		}
	}
	load := make(map[int]int)
	groups := make(map[int]int)
	for _, g := range assigns {
		load[g.holder] += len(g.pieces)
		groups[g.dl]++
		if len(g.pieces) > 1 {
			cov.doublePicks++
		}
	}
	for _, l := range load {
		if l == uploadsPerRound {
			cov.saturatedHolders++
			break
		}
	}
	for _, c := range groups {
		if c > 1 {
			cov.splitPicks++
			break
		}
	}
}

// TestRoundMatchesReference: over seeded model swarms of 16 to 512 peers —
// both picks, both chokes, 1 to 64 pieces, rates that tie and rates that are
// all zero, peers leaving between two holders' decisions — the production
// engine returns the reference's unchoke set for every holder and the
// reference's assignments (holder, downloader, piece order) for every round.
func TestRoundMatchesReference(t *testing.T) {
	cases := 96
	if testing.Short() {
		cases = 24
	}
	draws := rand.New(rand.NewSource(23))
	var cov roundCoverage
	for i := 0; i < cases; i++ {
		tc := roundCaseOf(int64(i+1), uint16(draws.Intn(48)), uint8(draws.Intn(64)), uint8(i))
		maxRounds := 200
		switch {
		case i%16 == 15 && !testing.Short():
			tc.n, maxRounds = 512, 3
			tc.warm = true
		case i%4 == 3:
			tc.n, maxRounds = 100+draws.Intn(156), 8
		}
		if err := checkRoundCase(tc, maxRounds, &cov); err != nil {
			t.Fatal(err)
		}
	}
	t.Logf("coverage over %d cases: %+v", cases, cov)
	for name, count := range map[string]int{
		"rankings that broke a tie of equal nonzero rates": cov.rateTies,
		"rankings over nothing but zero rates":             cov.zeroRateRankings,
		"peers leaving between two holders' decisions":     cov.leftMidRound,
		"advertised holders that had left":                 cov.staleHolders,
		"lost piece reports":                               cov.lostReports,
		"holders serving their full upload allotment":      cov.saturatedHolders,
		"downloaders served by two holders in one round":   cov.splitPicks,
		"two pieces from one holder in one round":          cov.doublePicks,
	} {
		if count < 5 {
			t.Errorf("the generator reached %q %d times over %d rounds, want at least 5", name, count, cov.rounds)
		}
	}
}

// FuzzRoundMatchesReference hands the case parameters to the fuzzer.
func FuzzRoundMatchesReference(f *testing.F) {
	f.Add(int64(1), uint16(0), uint8(15), uint8(0))
	f.Add(int64(2), uint16(48), uint8(0), uint8(1|4))
	f.Add(int64(3), uint16(200), uint8(63), uint8(2|8))
	f.Add(int64(4), uint16(496), uint8(15), uint8(8|16))
	f.Add(int64(5), uint16(7), uint8(31), uint8(1|2|4|8|16))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, pieces, flags uint8) {
		tc := roundCaseOf(seed, n, pieces, flags)
		maxRounds := 4096 / tc.n // a few rounds of a big swarm, a whole run of a small one
		if err := checkRoundCase(tc, maxRounds, nil); err != nil {
			t.Fatal(err)
		}
	})
}
