package scenario

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"peerlab/internal/simnet"
	"peerlab/internal/transport"
)

// Peer is one catalog entry: a label (the figure axis name), the hostname
// the node is deployed under, the node's link/load profile, and optionally
// the site (hosting institution) the node lives at — peers of one site fail
// together under correlated churn.
type Peer struct {
	Label    string
	Hostname string
	Site     string
	Profile  simnet.Profile
}

// ChurnEventKind distinguishes membership transitions.
type ChurnEventKind byte

// Churn event kinds.
const (
	// ChurnJoin boots (or re-boots) the peer's client at the event time.
	ChurnJoin ChurnEventKind = iota + 1
	// ChurnLeave stops the peer's client at the event time — an abrupt
	// departure, as on PlanetLab: no goodbye, the broker only learns of it
	// when the peer's advertisement lease expires.
	ChurnLeave
)

// String names the kind.
func (k ChurnEventKind) String() string {
	switch k {
	case ChurnJoin:
		return "join"
	case ChurnLeave:
		return "leave"
	default:
		return fmt.Sprintf("churnkind(%d)", byte(k))
	}
}

// ChurnEvent is one membership transition of a churn schedule: at offset At
// from session start the named peer joins or leaves the overlay.
type ChurnEvent struct {
	At    time.Duration
	Label string
	Kind  ChurnEventKind
}

// SortChurnEvents orders a schedule canonically: by time, then label, with
// a leave preceding a join at the same (time, label) so a coinciding pair
// reads as a restart. Schedule generators return this order and executors
// rely on it.
func SortChurnEvents(events []ChurnEvent) {
	sort.Slice(events, func(i, j int) bool {
		a, b := events[i], events[j]
		if a.At != b.At {
			return a.At < b.At
		}
		if a.Label != b.Label {
			return a.Label < b.Label
		}
		return a.Kind == ChurnLeave && b.Kind == ChurnJoin
	})
}

// Scenario describes a slice. The zero value is invalid; obtain scenarios
// from Parse, the generators below, or a registered constructor.
type Scenario struct {
	// Name identifies the scenario ("table1", "uniform:64", ...).
	Name string
	// Control is the broker-side node (the paper's nozomi main node).
	Control Peer
	// Labels lists the measured peers — the X axis of every per-peer
	// figure — in catalog order.
	Labels []string
	// Entry returns catalog entry i (0 <= i < len(Labels)) for a seed, with
	// Label Labels[i]. It must be a pure function of (seed, i) — entry i
	// never depends on another entry — so the runner may build any subset of
	// the catalog in any cell and rely on identical output at any worker
	// count (Synthesize, DeployPeers).
	Entry func(seed int64, i int) Peer
	// Remembered is the stale "quick peers" user memory Figure 6's
	// quick-peer model consults, fastest-remembered first.
	Remembered []string
	// Blemished names the peers whose statistical record earlier sessions
	// left blemishes on (failed messages, a cancelled transfer) before
	// Figure 6's selection runs.
	Blemished []string
	// Workload optionally names the workload spec (see internal/workload)
	// that best exercises this scenario — a session hint alongside
	// Remembered/Blemished. Empty defers to the harness default
	// (controller-fanout, the paper's traffic shape).
	Workload string
	// Churn, when non-nil, returns the slice's membership schedule for a
	// seed. Like Entry it must be a pure function of the seed. A peer
	// is absent until its first ChurnJoin; nil means static membership
	// (every peer up for the whole session, the paper's assumption).
	Churn func(seed int64) []ChurnEvent
	// Horizon is the churn schedule's session length: no event lies at or
	// beyond it, and executors spread traffic across it. Zero for static
	// scenarios.
	Horizon time.Duration
	// AdvTTL is the broker advertisement-lease TTL this scenario wants.
	// Churning scenarios set it short so departed peers age out of the
	// directory on a timescale the session can observe; zero defers to the
	// harness default (effectively unbounded for static scenarios).
	AdvTTL time.Duration
	// ChurnRate, when non-nil, returns this scenario with its membership
	// dynamics scaled by rate (sessions and downtimes shrink by 1/rate,
	// site outages grow proportionally more likely) — the hook behind the
	// sweep engine's churn-intensity axis. rate 1 must return the scenario
	// unchanged. nil means the scenario's dynamics are not rateable (every
	// static scenario, where there are no dynamics to scale).
	ChurnRate func(rate float64) Scenario
	// Faults, when non-nil, returns the session's control-plane fault plan
	// for a seed — broker blackouts, site partitions, loss bursts. Like
	// Entry and Churn it must be a pure function of the seed; nil
	// means a perfectly reliable control plane (every static scenario).
	Faults func(seed int64) []FaultEvent
	// FaultRate, when non-nil, returns this scenario with its fault
	// intensity scaled by rate — the hook behind the sweep engine's
	// fault-intensity axis. rate 1 must return the scenario unchanged; nil
	// means the scenario has no faults to scale.
	FaultRate func(rate float64) Scenario
}

// IsZero reports whether the scenario is unset.
func (s Scenario) IsZero() bool { return s.Entry == nil }

// Synthesize returns the full peer catalog for a seed, in label order.
func (s Scenario) Synthesize(seed int64) []Peer {
	peers := make([]Peer, len(s.Labels))
	for i := range peers {
		peers[i] = s.Entry(seed, i)
	}
	return peers
}

// DefaultAdvTTL is the broker lease TTL of scenarios that do not set their
// own: effectively unbounded, because a static slice's membership never
// changes and experiment runs span many virtual hours of idle gaps.
const DefaultAdvTTL = 30 * 24 * time.Hour

// EffectiveAdvTTL returns the broker lease TTL the scenario runs with —
// its own AdvTTL, or DefaultAdvTTL. Lease-renewal heartbeats and staleness
// audits must reason about this exact value (the one the broker was
// actually configured with), so the defaulting lives here, once.
func (s Scenario) EffectiveAdvTTL() time.Duration {
	if s.AdvTTL > 0 {
		return s.AdvTTL
	}
	return DefaultAdvTTL
}

// Slice is one deployed scenario: a simnet with the control node and every
// catalog peer added, ready for an overlay to boot on top.
type Slice struct {
	Net     *simnet.Network
	Control *simnet.Node
	// Peers maps peer label to node.
	Peers map[string]*simnet.Node
	// Catalog is the synthesized peer list, in order.
	Catalog []Peer
}

// Static returns the scenario with its dynamics stripped — no membership
// schedule, no fault plan, no lease hints — leaving the catalog a paper
// figure measures: figures ignore churn schedules, and a short lease with
// no renewal heartbeat behind it would just expire every candidate across
// the idle gaps.
func (s Scenario) Static() Scenario {
	s.Churn, s.ChurnRate, s.Faults, s.FaultRate = nil, nil, nil, nil
	s.Horizon, s.AdvTTL = 0, 0
	return s
}

// Deploy builds the simnet for a scenario. The seed drives both the catalog
// synthesis and every network random draw, so a (scenario, seed) pair names
// one reproducible world.
func Deploy(sc Scenario, seed int64) (*Slice, error) { return DeployPeers(sc, seed, nil) }

// DeployPeers is Deploy restricted to the named peer labels: the control
// node plus only those peers are synthesized and added, so a per-peer
// experiment cell on a huge slice pays for the nodes it touches, not for
// the directory size. The subset world is byte-identical to the full
// Deploy as long as the run really interacts with the named peers alone:
// catalog entries are independent (see Scenario.Entry), and a node that never
// sends or receives leaves no trace on the scheduler or on any draw stream.
// A nil labels list deploys the full catalog. The returned slice's Catalog
// and Peers hold what was deployed, in catalog order.
func DeployPeers(sc Scenario, seed int64, labels []string) (*Slice, error) {
	if sc.IsZero() {
		return nil, errors.New("scenario: Deploy of zero Scenario")
	}
	n, want := len(sc.Labels), map[string]bool(nil)
	if labels != nil {
		n, want = len(labels), make(map[string]bool, len(labels))
		for _, l := range labels {
			want[l] = true
		}
	}
	catalog := make([]Peer, 0, n)
	for i, l := range sc.Labels {
		if want == nil || want[l] {
			delete(want, l)
			catalog = append(catalog, sc.Entry(seed, i))
		}
	}
	for l := range want {
		return nil, fmt.Errorf("scenario: DeployPeers: unknown peer label %q", l)
	}
	net := simnet.New(seed)
	control, err := net.AddNode(sc.Control.Hostname, sc.Control.Profile)
	if err != nil {
		return nil, err
	}
	s := &Slice{
		Net:     net,
		Control: control,
		Peers:   make(map[string]*simnet.Node, len(catalog)),
		Catalog: catalog,
	}
	for _, p := range catalog {
		node, err := net.AddNode(p.Hostname, p.Profile)
		if err != nil {
			return nil, err
		}
		s.Peers[p.Label] = node
	}
	return s, nil
}

// ---- registry -----------------------------------------------------------

var (
	regMu    sync.Mutex
	registry = make(map[string]func() Scenario)
)

// Register installs a named scenario constructor; Parse resolves bare names
// through it. internal/planetlab registers "table1" (the calibrated
// default) at init time, so any importer of the experiment stack can parse
// it.
func Register(name string, fn func() Scenario) {
	regMu.Lock()
	defer regMu.Unlock()
	registry[name] = fn
}

// Registered returns the registered scenario names, sorted.
func Registered() []string {
	regMu.Lock()
	defer regMu.Unlock()
	names := make([]string, 0, len(registry))
	for n := range registry {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// MaxPeers bounds the peer count a generator spec accepts: synthesizing a
// catalog is eager (labels and profiles materialize up front), so a peer
// count beyond any simulable slice must fail at parse time instead of
// exhausting memory.
const MaxPeers = 1_000_000

// Parse resolves a scenario spec: a registered name ("table1"), or a
// generator spec "uniform:N" / "heterogeneous:N" / "zipf:N" / "churn:N" /
// "faults:N" with N peers (1 ≤ N ≤ MaxPeers).
func Parse(spec string) (Scenario, error) {
	if kind, arg, ok := strings.Cut(spec, ":"); ok {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 || n > MaxPeers {
			return Scenario{}, fmt.Errorf("scenario: %q: peer count must be an integer in [1, %d]", spec, MaxPeers)
		}
		switch kind {
		case "uniform":
			return Uniform(n), nil
		case "heterogeneous":
			return Heterogeneous(n), nil
		case "zipf":
			return Zipf(n), nil
		case "churn":
			return Churn(n), nil
		case "faults":
			return Faulty(n), nil
		default:
			return Scenario{}, fmt.Errorf("scenario: unknown generator %q (want uniform:N, heterogeneous:N, zipf:N, churn:N or faults:N)", kind)
		}
	}
	regMu.Lock()
	fn := registry[spec]
	regMu.Unlock()
	if fn == nil {
		return Scenario{}, fmt.Errorf("scenario: unknown scenario %q (want %s, uniform:N, heterogeneous:N, zipf:N, churn:N or faults:N)",
			spec, strings.Join(Registered(), ", "))
	}
	return fn(), nil
}

// ---- synthetic generators -----------------------------------------------

// Mix64 is the SplitMix64 finalizer: a cheap bijective mixer whose output
// is statistically independent of closely spaced inputs. It is the one
// seed-derivation primitive of the experiment stack — the generators below
// decorrelate per-peer draw streams with it, and the experiment runner
// derives per-cell seeds from it — shared so the two layers cannot drift
// apart.
func Mix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// peerRand returns the deterministic draw stream for peer index i.
func peerRand(seed int64, i int) *rand.Rand {
	return transport.NewRand(int64(Mix64(Mix64(uint64(seed)) ^ uint64(i+1))))
}

func uniformIn(r *rand.Rand, lo, hi float64) float64 {
	return lo + (hi-lo)*r.Float64()
}

// syntheticControl models a well-provisioned, lightly loaded broker-side
// machine (the same figures as the calibrated nozomi main node).
func syntheticControl() Peer {
	return Peer{
		Label:    "control",
		Hostname: "control.slice.peerlab",
		Profile: simnet.Profile{
			LatencyOneWay: 5 * time.Millisecond,
			Jitter:        time.Millisecond,
			Bandwidth:     50e6,
			CPUScore:      2.0,
		},
	}
}

// syntheticLabels names n peers p001..pN.
func syntheticLabels(n int) []string {
	labels := make([]string, n)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%03d", i+1)
	}
	return labels
}

// fig6Hints fills the Remembered/Blemished roles for an n-peer synthetic
// scenario with fixed, seed-independent picks (the "user memory" and the
// prior sessions' history are arbitrary; they only need to be stable).
func fig6Hints(labels []string) (remembered, blemished []string) {
	n := len(labels)
	for _, i := range []int{2, 5, 4} {
		if i < n {
			remembered = append(remembered, labels[i])
		}
	}
	if len(remembered) == 0 {
		remembered = []string{labels[0]}
	}
	blemished = []string{labels[0]}
	if n > 1 {
		blemished = append(blemished, labels[1])
	}
	return remembered, blemished
}

// baseProfile carries the model parameters every slice node shares: per
// DESIGN.md, the failure-restart and size-degradation models are properties
// of the substrate, not of individual calibrations.
func baseProfile() simnet.Profile {
	return simnet.Profile{
		Jitter:          8 * time.Millisecond,
		WakeLagSpread:   0.15,
		EngagedWindow:   30 * time.Second,
		DegradeRefBytes: 50e6,
		DegradeExp:      1.5,
	}
}

// synthetic builds the scenario every generator here is a variation of: n
// peers p001..pN under "<label>.<domain>.slice.peerlab", catalog entry i
// drawn by profile from peer i's own stream (peerRand) and placed by site
// (nil: no sites). The streams are independent by construction, so entry i
// is identical whether or not its neighbours were synthesized.
func synthetic(name, domain string, n int, site func(i int) string, profile func(r *rand.Rand, i int) simnet.Profile) Scenario {
	labels := syntheticLabels(n)
	sc := Scenario{
		Name:    fmt.Sprintf("%s:%d", name, n),
		Control: syntheticControl(),
		Labels:  labels,
		Entry: func(seed int64, i int) Peer {
			p := Peer{Label: labels[i], Hostname: labels[i] + "." + domain + ".slice.peerlab", Profile: profile(peerRand(seed, i), i)}
			if site != nil {
				p.Site = site(i)
			}
			return p
		},
	}
	sc.Remembered, sc.Blemished = fig6Hints(labels)
	return sc
}

// Uniform describes a homogeneous slice of n well-behaved peers: profiles
// drawn from narrow bands around the mid-tier calibrated SC peers.
func Uniform(n int) Scenario {
	return synthetic("uniform", "uniform", n, nil, func(r *rand.Rand, _ int) simnet.Profile {
		p := baseProfile()
		p.LatencyOneWay = time.Duration(uniformIn(r, 15, 35) * float64(time.Millisecond))
		p.Bandwidth = uniformIn(r, 1.0e6, 1.4e6)
		p.CPUScore = uniformIn(r, 0.9, 1.1)
		p.MTBF = 180 * time.Minute
		return p
	})
}

// Heterogeneous describes a PlanetLab-like slice of n peers drawn from a
// three-class mixture: ~50% healthy slivers, ~30% loaded (seconds of wake
// lag, thinner links), ~20% pathological SC7-style nodes (long wake lags,
// weak CPUs, frequent restarts). Class membership and every parameter are
// drawn from the seed.
func Heterogeneous(n int) Scenario {
	return synthetic("heterogeneous", "hetero", n, nil, heterogeneousProfile)
}

func heterogeneousProfile(r *rand.Rand, _ int) simnet.Profile {
	p := baseProfile()
	switch class := r.Float64(); {
	case class < 0.5: // healthy
		p.LatencyOneWay = time.Duration(uniformIn(r, 10, 30) * float64(time.Millisecond))
		p.Bandwidth = uniformIn(r, 1.2e6, 1.8e6)
		p.CPUScore = uniformIn(r, 1.0, 1.3)
		p.MTBF = 180 * time.Minute
	case class < 0.8: // loaded sliver
		p.LatencyOneWay = time.Duration(uniformIn(r, 20, 40) * float64(time.Millisecond))
		p.Bandwidth = uniformIn(r, 0.6e6, 1.2e6)
		p.CPUScore = uniformIn(r, 0.7, 1.0)
		p.WakeLag = time.Duration(uniformIn(r, 1, 8) * float64(time.Second))
		p.MTBF = 120 * time.Minute
	default: // pathological (SC7-style)
		p.LatencyOneWay = time.Duration(uniformIn(r, 30, 60) * float64(time.Millisecond))
		p.Bandwidth = uniformIn(r, 0.2e6, 0.6e6)
		p.CPUScore = uniformIn(r, 0.4, 0.7)
		p.WakeLag = time.Duration(uniformIn(r, 8, 30) * float64(time.Second))
		p.MTBF = time.Duration(uniformIn(r, 35, 60) * float64(time.Minute))
	}
	return p
}

// Zipf describes a slice of n peers whose bandwidths follow a Zipf-like
// distribution: peer i's access link scales as 1/rank^zipfExp, so a handful
// of well-provisioned peers coexist with a long tail of thin ones — the
// capacity skew measured in BitTorrent-style populations (Rao et al.,
// arXiv:1006.4490), which uniform and three-class mixtures both miss.
// Ranks follow catalog order (p001 is the fattest peer), so the X axis of a
// per-peer figure doubles as the capacity rank; the seed draws only the
// per-peer wobble around the rank curve.
func Zipf(n int) Scenario {
	sc := synthetic("zipf", "zipf", n, nil, func(r *rand.Rand, i int) simnet.Profile {
		p := baseProfile()
		bw := zipfBaseBandwidth / math.Pow(float64(i+1), zipfExp)
		if bw < zipfMinBandwidth {
			bw = zipfMinBandwidth
		}
		p.Bandwidth = bw * uniformIn(r, 0.9, 1.1)
		p.LatencyOneWay = time.Duration(uniformIn(r, 15, 40) * float64(time.Millisecond))
		p.CPUScore = uniformIn(r, 0.8, 1.2)
		p.MTBF = 150 * time.Minute
		return p
	})
	// The capacity skew is where piece-level incentives are visible —
	// fast-with-fast clustering needs bandwidth classes to cluster — so
	// the hinted workload is the swarm dissemination over all n peers.
	// 128 pieces keeps the swarm in its leeching phase long enough for
	// tit-for-tat reciprocity to latch onto observed rates; with the
	// 16-piece default the seeding transient dominates the pair matrix
	// and the clustering signal drowns in it.
	sc.Workload = fmt.Sprintf("disseminate:%d;pieces=128", n)
	return sc
}

// Zipf bandwidth curve: the head peer gets ~8 MB/s and rank r decays as
// r^-0.9, floored so tail peers stay usable (a transfer that can never
// finish measures nothing).
const (
	zipfBaseBandwidth = 8e6
	zipfExp           = 0.9
	zipfMinBandwidth  = 0.15e6
)

// Churn-schedule timescales. The lease TTL is much shorter than a static
// deployment's (where leases effectively never expire): under churn the
// broker must notice departures on a timescale the session can observe.
const (
	churnHorizon  = 10 * time.Minute
	churnAdvTTL   = 90 * time.Second
	churnSiteSize = 8
)

// Churn describes a PlanetLab-like slice of n peers (the Heterogeneous
// three-class mixture) whose membership churns: peers join staggered, leave
// abruptly mid-session and rejoin after a downtime, and whole sites fail
// together. The schedule is drawn per peer from its own SplitMix64 stream —
// a pure function of the seed, like the catalog itself. The scenario also
// carries the short lease TTL (AdvTTL) that makes the broker's directory
// track membership instead of assuming it.
func Churn(n int) Scenario { return ChurnRated(n, 1) }

// ChurnRated is Churn with its membership dynamics scaled by rate: session
// lengths and downtimes shrink by 1/rate and site outages become
// proportionally more likely (and shorter), so rate 2 roughly doubles the
// departures per horizon while the lease timescales stay fixed — exactly the
// stress the "selection quality vs churn rate" figure sweeps. rate 1 is
// byte-identical to Churn (the draws are divided by 1.0, which is exact);
// rate <= 0 is treated as 1.
func ChurnRated(n int, rate float64) Scenario {
	if !(rate > 0) || math.IsInf(rate, 1) {
		rate = 1
	}
	sc := synthetic("churn", "churn", n, churnSite, heterogeneousProfile)
	sc.Workload = fmt.Sprintf("swarm:%d", n)
	sc.Churn = func(seed int64) []ChurnEvent { return churnSchedule(sc.Labels, seed, rate) }
	sc.Horizon, sc.AdvTTL = churnHorizon, churnAdvTTL
	sc.ChurnRate = func(r float64) Scenario { return ChurnRated(n, r) }
	return sc
}

// churnSite groups catalog peers into sites of churnSiteSize consecutive
// entries — the hosting institutions whose outages take all co-located
// slivers down at once.
func churnSite(i int) string { return fmt.Sprintf("site%02d", i/churnSiteSize) }

// atLeastTick converts a rate-scaled duration draw safely: a draw beyond
// the horizon (a tiny rate blowing the division up — possibly past the
// int64 range, where a raw conversion would wrap negative) saturates at the
// horizon, ending the peer's schedule, and an extreme rate must never round
// a schedule advance to zero, which would trap churnSchedule's session loop
// before the horizon.
func atLeastTick(ns float64) time.Duration {
	if !(ns < float64(churnHorizon)) {
		return churnHorizon
	}
	if d := time.Duration(ns); d > 0 {
		return d
	}
	return 1
}

// churnRand returns peer i's churn-schedule draw stream; the tag decorrelates
// it from the same peer's profile stream (peerRand).
func churnRand(seed int64, i int) *rand.Rand {
	return transport.NewRand(int64(Mix64(Mix64(uint64(seed)^0xc452) ^ uint64(i+1))))
}

// siteRand returns site s's outage draw stream.
func siteRand(seed int64, s int) *rand.Rand {
	return transport.NewRand(int64(Mix64(Mix64(uint64(seed)^0x517e) ^ uint64(s+1))))
}

// churnSchedule draws the (join, leave, rejoin) schedule for every peer plus
// correlated per-site outages, in canonical order. Three quarters of the
// peers are present at session start; the rest arrive during the first half
// of the horizon. Sessions and downtimes are uniform draws sized so most
// peers cycle once or twice per horizon. A site outage (30% of sites at
// rate 1) emits a leave for every member — redundant transitions are fine,
// executors are idempotent — and a rejoin when the outage ends inside the
// horizon. rate scales the dynamics (see ChurnRated): every duration draw is
// divided by it after the draw, and the outage probability is multiplied by
// it (capped at 1), so the draw stream itself — how many times each RNG is
// consulted per peer before the horizon cuts the cycle off — is the only
// thing that shifts with rate, never the stream's contents.
func churnSchedule(labels []string, seed int64, rate float64) []ChurnEvent {
	var events []ChurnEvent
	h := float64(churnHorizon)
	for i, l := range labels {
		r := churnRand(seed, i)
		t := time.Duration(0)
		if r.Float64() >= 0.75 {
			t = time.Duration(uniformIn(r, 0, h/2))
		}
		events = append(events, ChurnEvent{At: t, Label: l, Kind: ChurnJoin})
		for {
			t += atLeastTick(uniformIn(r, float64(2*time.Minute), float64(8*time.Minute)) / rate)
			if t >= churnHorizon {
				break
			}
			events = append(events, ChurnEvent{At: t, Label: l, Kind: ChurnLeave})
			t += atLeastTick(uniformIn(r, float64(time.Minute), float64(3*time.Minute)) / rate)
			if t >= churnHorizon {
				break
			}
			events = append(events, ChurnEvent{At: t, Label: l, Kind: ChurnJoin})
		}
	}
	outageP := 0.3 * rate
	if outageP > 1 {
		outageP = 1
	}
	sites := (len(labels) + churnSiteSize - 1) / churnSiteSize
	for s := 0; s < sites; s++ {
		r := siteRand(seed, s)
		if r.Float64() >= outageP {
			continue
		}
		at := time.Duration(uniformIn(r, h/4, 3*h/4))
		end := at + atLeastTick(uniformIn(r, float64(45*time.Second), float64(2*time.Minute))/rate)
		for i := s * churnSiteSize; i < (s+1)*churnSiteSize && i < len(labels); i++ {
			events = append(events, ChurnEvent{At: at, Label: labels[i], Kind: ChurnLeave})
			if end < churnHorizon {
				events = append(events, ChurnEvent{At: end, Label: labels[i], Kind: ChurnJoin})
			}
		}
	}
	SortChurnEvents(events)
	return events
}
