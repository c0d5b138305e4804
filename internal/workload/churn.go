// Churn runtime: Schedule (the pure, queryable view of a scenario's
// membership schedule), Conductor (the virtual-time process that executes
// it), inject (its twin, the process that executes a fault plan) and
// Dynamics (the one place a scenario's schedule, conductor, fault plan and
// injector are wired together). DESIGN.md "Workload layer" states the
// split.

package workload

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"time"

	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/transport"
)

// scheduleOpen marks an up-interval with no scheduled leave: the peer stays
// up past every horizon.
const scheduleOpen = time.Duration(1<<63 - 1)

// interval is one up-interval [From, To): the peer is live at offset t when
// From <= t < To.
type interval struct{ from, to time.Duration }

// Schedule is the pure view of a churn schedule: per-peer membership
// intervals derived from the event list, queryable at any session offset.
// It never touches clients — executors use a Conductor for that — so the
// same Schedule answers both the runtime (who is up now?) and the post-hoc
// audit (was this selection stale?).
type Schedule struct {
	events     []scenario.ChurnEvent
	intervals  map[string][]interval
	departures int
}

// NewSchedule folds an event list into membership intervals. Events are
// applied in canonical order (scenario.SortChurnEvents) and idempotently: a
// join while up and a leave while down are no-ops, so redundant transitions
// (a site outage overlapping an individual leave) are harmless.
func NewSchedule(events []scenario.ChurnEvent) *Schedule {
	sorted := append([]scenario.ChurnEvent(nil), events...)
	scenario.SortChurnEvents(sorted)
	s := &Schedule{events: sorted, intervals: make(map[string][]interval)}
	open := make(map[string]time.Duration) // label -> current interval start
	up := make(map[string]bool)
	for _, e := range sorted {
		switch e.Kind {
		case scenario.ChurnJoin:
			if !up[e.Label] {
				up[e.Label] = true
				open[e.Label] = e.At
			}
		case scenario.ChurnLeave:
			if up[e.Label] {
				up[e.Label] = false
				s.intervals[e.Label] = append(s.intervals[e.Label], interval{open[e.Label], e.At})
				s.departures++
			}
		}
	}
	for label, live := range up {
		if live {
			s.intervals[label] = append(s.intervals[label], interval{open[label], scheduleOpen})
		}
	}
	return s
}

// Departures counts the up→down transitions of the whole schedule — the
// PeersDeparted figure of a churn run. It is schedule-derived, not runtime-
// observed, so it is identical at any worker or shard count by construction.
func (s *Schedule) Departures() int { return s.departures }

// Initial returns the labels up at offset 0, sorted.
func (s *Schedule) Initial() []string {
	var labels []string
	for label := range s.intervals {
		if s.LiveAt(label, 0) {
			labels = append(labels, label)
		}
	}
	sort.Strings(labels)
	return labels
}

// LiveAt reports whether the peer is up at session offset at. A peer the
// schedule never joins is never up: the Conductor boots only scheduled
// peers, and the query side must agree with the execution side — a
// trace-shaped schedule covering a subset of the catalog leaves the rest
// offline, and ResolveSources steers flows away from them.
func (s *Schedule) LiveAt(label string, at time.Duration) bool {
	for _, iv := range s.intervals[label] {
		if iv.from <= at && at < iv.to {
			return true
		}
	}
	return false
}

// DownThroughout reports whether the peer is down for the entire window
// [from, to] — no up-interval overlaps it. A negative from is clamped to 0.
// The staleness audit uses it: a peer down throughout [t-TTL, t] cannot
// have renewed its lease after t-TTL, so its advertisement is certainly
// expired at t and the broker must not hand it out.
func (s *Schedule) DownThroughout(label string, from, to time.Duration) bool {
	from = max(from, 0)
	for _, iv := range s.intervals[label] {
		if iv.from <= to && from < iv.to {
			return false
		}
	}
	return true
}

// Conductor executes a churn schedule against live overlay clients: it
// boots the initial population, then runs the remaining joins and leaves as
// one virtual-time process. It owns the live-client map — Run hands it to
// the executors as Env.Clients, where a departed peer has no entry — and is
// safe under the serialized vtime dispatcher (at most one process touches
// the map at a time).
type Conductor struct {
	host transport.Host
	// Schedule is the pure view of what the conductor executes; audits
	// query it.
	Schedule   *Schedule
	boot       func(label string) (*overlay.Client, error)
	clients    map[string]*overlay.Client
	live       []heartbeat     // one per live client, in label order
	join       transport.Queue // a heartbeat round's join, see renewLoop
	start      time.Time
	renewEvery time.Duration
	horizon    time.Duration
	lag        time.Duration
	late       scenario.ChurnEvent // the transition that set lag
	err        error
}

// NewConductor builds a conductor over host's scheduler. boot creates and
// starts the client for a label (overlay.BootPeer, for StartDynamics);
// it runs inside the simulation whenever the schedule joins that peer.
//
// renewEvery is the lease-renewal heartbeat: every renewEvery of virtual
// time (until horizon) each live client pushes a stats report, which renews
// its broker lease. Zero disables the heartbeat.
func NewConductor(host transport.Host, schedule *Schedule,
	renewEvery, horizon time.Duration,
	boot func(label string) (*overlay.Client, error)) *Conductor {
	return &Conductor{
		host:       host,
		Schedule:   schedule,
		boot:       boot,
		clients:    make(map[string]*overlay.Client),
		join:       host.NewQueue(),
		renewEvery: renewEvery,
		horizon:    horizon,
	}
}

// BootInitial boots every peer up at session offset 0, in label order, and
// records the session start instant. Call it from the driver process before
// launching traffic, so no flow races the initial population's
// registrations.
func (c *Conductor) BootInitial() error {
	c.start = c.host.Now()
	for _, label := range c.Schedule.Initial() {
		cl, err := c.boot(label)
		if err != nil {
			return err
		}
		c.admit(label, cl)
	}
	return nil
}

// heartbeat is a live client's lease renewal, built once at its boot.
type heartbeat struct {
	label string
	beat  func()
}

// admit enters a booted client in the live map and its heartbeat in the
// label-ordered round.
func (c *Conductor) admit(label string, cl *overlay.Client) {
	c.clients[label] = cl
	i, _ := slices.BinarySearchFunc(c.live, label, func(h heartbeat, l string) int { return strings.Compare(h.label, l) })
	c.live = slices.Insert(c.live, i, heartbeat{label, func() {
		_ = cl.ReportStats() // best-effort: the peer may have just departed
		c.join.Push(nil)
	}})
}

// Start spawns the schedule process: it sleeps from event to event and
// applies each transition idempotently — a leave stops and forgets the
// client, a join boots a fresh one (re-registering with the broker under a
// fresh lease). Transitions at offset 0 were BootInitial's job and are
// skipped.
func (c *Conductor) Start() {
	c.host.Go(func() {
		for _, e := range c.Schedule.events {
			if e.At <= 0 {
				continue
			}
			if d := e.At - c.host.Now().Sub(c.start); d > 0 {
				c.host.Sleep(d)
			}
			c.apply(e)
			if late := c.host.Now().Sub(c.start) - e.At; late > c.lag {
				c.lag, c.late = late, e
			}
		}
	})
	if c.renewEvery > 0 {
		c.host.Go(c.renewLoop)
	}
}

// renewLoop is the lease-renewal heartbeat process: every renewEvery it
// pushes a stats report for every live client, as concurrent processes
// spawned in label order and joined before the next tick, so a round takes
// one round-trip, not N (sequential renewals would lapse live leases on
// large slices). It ends at the horizon, so the simulation quiesces.
func (c *Conductor) renewLoop() {
	for t := c.renewEvery; t < c.horizon; t += c.renewEvery {
		if d := t - c.host.Now().Sub(c.start); d > 0 {
			c.host.Sleep(d)
		}
		spawned := len(c.live) // joins and leaves while the round runs count from the next
		for _, h := range c.live {
			c.host.Go(h.beat)
		}
		for i := 0; i < spawned; i++ {
			if _, err := c.join.Pop(); err != nil {
				return
			}
		}
	}
}

func (c *Conductor) apply(e scenario.ChurnEvent) {
	switch e.Kind {
	case scenario.ChurnLeave:
		if cl := c.clients[e.Label]; cl != nil {
			cl.Stop()
			delete(c.clients, e.Label)
			c.live = slices.DeleteFunc(c.live, func(h heartbeat) bool { return h.label == e.Label })
		}
	case scenario.ChurnJoin:
		if c.clients[e.Label] != nil {
			return
		}
		cl, err := c.boot(e.Label)
		if err != nil {
			if c.err == nil {
				c.err = err
			}
			return
		}
		c.admit(e.Label, cl)
	}
}

// StartedAt returns the session start instant BootInitial recorded;
// schedule offsets are relative to it.
func (c *Conductor) StartedAt() time.Time { return c.start }

// Lag returns the worst lateness of a transition applied so far — how long
// after its scheduled offset a leave or join took effect — and that
// transition: how far the membership the broker sees trails the Schedule.
// Audits that trust schedule offsets widen their certainty windows by it
// (DESIGN.md "Leases & churn").
func (c *Conductor) Lag() (time.Duration, scenario.ChurnEvent) { return c.lag, c.late }

// Err returns the first boot failure the schedule process hit (nil in
// healthy runs; a rejoin cannot fail on a simulated slice unless the broker
// is gone).
func (c *Conductor) Err() error { return c.err }

// Dynamics is the live side of a scenario whose membership — and, on fault
// scenarios, control plane — moves while a session runs: the schedule, the
// conductor executing it, and the fault plan the injector executes beside
// it. Experiment cells and the public facade both get theirs from
// StartDynamics, so the two cannot wire a churning world differently.
type Dynamics struct {
	*Conductor
	// Plan is the fault plan the injector runs, in canonical order; empty
	// when the scenario has none.
	Plan   []scenario.FaultEvent
	labels []string // the scenario's measured peers, for source re-resolution
	seed   int64
}

// StartDynamics brings sc's dynamics to life on a deployed slice: it draws
// the churn schedule (and any fault plan) from seed, boots the initial
// population (Resilient on fault scenarios), starts the conductor and the
// injector. Call it from the driver process before traffic, on a broker that
// runs sc.EffectiveAdvTTL. Conductor.Err is final only at quiescence.
func StartDynamics(slice *scenario.Slice, broker *overlay.Broker, sc scenario.Scenario, seed int64) (*Dynamics, error) {
	d := &Dynamics{labels: sc.Labels, seed: seed}
	cpuOf := make(map[string]float64, len(slice.Catalog))
	for _, p := range slice.Catalog {
		cpuOf[p.Label] = p.Profile.CPUScore
	}
	// Renewals land three times inside every TTL window of the lease the
	// broker runs with: the staleness audit relies on a live peer's lease
	// never lapsing between heartbeats.
	d.Conductor = NewConductor(slice.Control, NewSchedule(sc.Churn(seed)), sc.EffectiveAdvTTL()/3, sc.Horizon,
		func(label string) (*overlay.Client, error) {
			node := slice.Peers[label]
			if node == nil {
				return nil, fmt.Errorf("workload: churn schedule names unknown peer %q", label)
			}
			// BootPeer gives a rebooted incarnation a fresh conn-id space,
			// so its messages are not mistaken for the previous one's
			// retransmits.
			c, err := overlay.BootPeer(node, broker.Addr(), overlay.ClientConfig{CPUScore: cpuOf[label], Resilient: sc.Faults != nil})
			if err != nil {
				return nil, fmt.Errorf("workload: churn boot %s: %w", label, err)
			}
			return c, nil
		})
	if err := d.BootInitial(); err != nil {
		return d, err
	}
	d.Start()
	if sc.Faults != nil {
		d.Plan = sc.Faults(seed)
		inject(slice, broker, d.Plan)
	}
	return d, nil
}

// inject spawns the fault plan's process, the conductor's twin: it sleeps
// from one fault edge to the next and flips the broker or the network at
// each. Offsets are relative to the instant inject is called, the session
// start, and the process draws nothing. Ends sort before starts at equal
// instants, so a back-to-back blackout pair restarts the broker before
// taking it down again. A partition severs every catalog host of its site
// from the control node in both directions; a loss burst loads the control
// node's links with the summed rate of the bursts live at that instant.
func inject(slice *scenario.Slice, broker *overlay.Broker, events []scenario.FaultEvent) {
	type edge struct {
		at    time.Duration
		start bool
		event scenario.FaultEvent
	}
	var edges []edge
	for _, e := range events {
		edges = append(edges, edge{e.At, true, e}, edge{e.At + e.Dur, false, e})
	}
	sort.SliceStable(edges, func(i, j int) bool {
		if edges[i].at != edges[j].at {
			return edges[i].at < edges[j].at
		}
		return !edges[i].start && edges[j].start
	})
	host, control := slice.Control, slice.Control.Name()
	base := host.Now()
	loss := 0.0
	host.Go(func() {
		for _, x := range edges {
			if d := x.at - host.Now().Sub(base); d > 0 {
				host.Sleep(d)
			}
			switch e := x.event; e.Kind {
			case scenario.FaultBrokerBlackout:
				if x.start {
					broker.SetDown(true)
				} else {
					broker.Restart()
				}
			case scenario.FaultSitePartition:
				for _, p := range slice.Catalog {
					if p.Site == e.Site {
						slice.Net.Partition(p.Hostname, control, x.start)
						slice.Net.Partition(control, p.Hostname, x.start)
					}
				}
			case scenario.FaultLossBurst:
				if x.start {
					loss += e.Loss
				} else {
					loss -= e.Loss
				}
				if loss < 1e-12 {
					loss = 0
				}
				slice.Net.SetExtraLoss(control, loss)
			}
		}
	})
}

// Run executes flows with the engine w names — the piece engine for a
// dissemination workload, the single-round executor otherwise — over static
// membership (dyn nil: env.Clients) or over dyn's live membership. Under
// dynamics env.Clients is the conductor's live map and per-flow failures are
// recorded rather than aborting: a departed sink is a measurement, not a
// crash. The piece engine paces itself by rounds; single-round launches are
// spread across the horizon.
func Run(env Env, dyn *Dynamics, w Workload, flows []Flow, seed int64) (Outcome, error) {
	if dyn != nil {
		env.Clients = dyn.clients
		env.recordFailures = true
		if w.Disseminate == nil {
			// Stagger offsets are schedule-relative (zero = the conductor's
			// start), but traffic launches elapsed later (initial boots, or
			// a driver that slept mid-session): a flow whose slot already
			// passed launches immediately, and sources are re-resolved
			// against the membership scheduled at each flow's actual launch
			// instant.
			stagger := Stagger(dyn.seed, dyn.horizon)
			elapsed := env.Host.Now().Sub(dyn.StartedAt())
			at := func(f Flow) time.Duration { return max(stagger(f), elapsed) }
			flows = ResolveSources(flows, dyn.Schedule, dyn.labels, at)
			env.startOf = func(f Flow) time.Duration { return at(f) - elapsed }
		}
	}
	if w.Disseminate != nil {
		return ExecuteDisseminate(env, *w.Disseminate, flows, seed)
	}
	results, err := Execute(env, flows, seed)
	return Outcome{Results: results}, err
}

// ResolveSources returns a copy of flows with every peer-sourced flow whose
// source is scheduled down at the flow's start offset remapped to the next
// catalog peer (wrapping) scheduled live then — "whoever is online
// originates the traffic", the swarm regime where offline peers do not
// start transfers. A flow keeps its drawn source when no peer is live at
// its start (it will fail, and be recorded as such). Pure function of
// (flows, schedule, labels, startOf), so churn cells stay bit-reproducible.
func ResolveSources(flows []Flow, s *Schedule, labels []string, startOf func(Flow) time.Duration) []Flow {
	index := make(map[string]int, len(labels))
	for i, l := range labels {
		index[l] = i
	}
	out := append([]Flow(nil), flows...)
	for i, f := range out {
		if f.Source == "" {
			continue
		}
		start := startOf(f)
		if s.LiveAt(f.Source, start) {
			continue
		}
		at, ok := index[f.Source]
		if !ok {
			continue
		}
		for step := 1; step <= len(labels); step++ {
			cand := labels[(at+step)%len(labels)]
			if s.LiveAt(cand, start) {
				out[i].Source = cand
				break
			}
		}
	}
	return out
}

// Stagger returns a per-flow start-offset function spreading flow launches
// uniformly across the first staggerWindow of a churn horizon, derived from
// the same per-flow SplitMix64 streams as payload seeds (decorrelated by a
// fixed tag). Run staggers a churning scenario's launches with it, so
// selections happen throughout the session — including after departed
// peers' leases expire — instead of all at virtual instant zero.
func Stagger(seed int64, horizon time.Duration) func(Flow) time.Duration {
	return func(f Flow) time.Duration {
		h := scenario.Mix64(uint64(FlowSeed(seed, f.Index)) ^ 0x57a6)
		frac := float64(h>>11) / float64(uint64(1)<<53)
		return time.Duration(frac * float64(horizon) * staggerWindow)
	}
}

// staggerWindow is the fraction of the horizon flow launches spread over;
// the tail fifth is left for in-flight transfers to finish before the
// session ends.
const staggerWindow = 0.8
