// Package faults executes deterministic control-plane fault plans against a
// running deployment: broker blackouts (cold-cache restarts), site
// partitions, and control-link loss bursts.
//
// Ownership mirrors the churn split: the scenario layer *describes* faults
// (scenario.FaultEvent, a pure function of the seed), this package turns a
// described plan into a queryable Plan (canonical order, downtime
// accounting) and an Injector — the virtual-time process that applies each
// fault to the simulated network and broker on schedule. Everything here is
// deterministic: the injector draws nothing, it only replays the plan.
package faults

import (
	"sort"
	"time"

	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
)

// Plan is an executable fault plan: the event list in canonical order plus
// derived accounting (broker downtime), queryable without running anything.
type Plan struct {
	events []scenario.FaultEvent
}

// NewPlan builds a plan from an event list, copying and canonically
// sorting it (scenario.SortFaultEvents).
func NewPlan(events []scenario.FaultEvent) *Plan {
	sorted := append([]scenario.FaultEvent(nil), events...)
	scenario.SortFaultEvents(sorted)
	return &Plan{events: sorted}
}

// Events returns the plan's events in canonical order. The slice is shared;
// callers must not mutate it.
func (p *Plan) Events() []scenario.FaultEvent { return p.events }

// BrokerDowntime returns the total broker-blackout time, with overlapping
// blackout intervals merged — the session's broker-unavailable budget. It
// is plan-derived, not runtime-observed, so it is identical at any worker
// or shard count by construction.
func (p *Plan) BrokerDowntime() time.Duration {
	type iv struct{ from, to time.Duration }
	var ivs []iv
	for _, e := range p.events {
		if e.Kind == scenario.FaultBrokerBlackout {
			ivs = append(ivs, iv{e.At, e.At + e.Dur})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].from < ivs[j].from })
	var total, end time.Duration
	for _, v := range ivs {
		if v.from > end {
			total += v.to - v.from
			end = v.to
		} else if v.to > end {
			total += v.to - end
			end = v.to
		}
	}
	return total
}

// Broker is the injector's view of the broker under test: enough to take
// it down and bring it back with a cold cache. overlay.Broker implements
// it; the indirection keeps this package from importing the overlay.
type Broker interface {
	// SetDown makes the broker stop answering (true) or resume (false)
	// without touching its state.
	SetDown(down bool)
	// Restart brings the broker back up with every advertisement cache
	// wiped — the cold-cache recovery that forces re-registration.
	Restart()
}

// Injector executes a fault plan against a live deployment as one
// virtual-time process.
type Injector struct {
	host    transport.Host
	net     *simnet.Network
	broker  Broker
	control string
	sites   map[string][]string
	plan    *Plan
}

// NewInjector builds an injector. host drives the schedule (the driver
// node); net is the simulated network; broker is the deployment's broker
// (nil skips blackout events); control is the control node's hostname —
// partitions sever site↔control, loss bursts load the control node's
// links; sites maps a site name to its member hostnames (only named sites
// can be partitioned; hosts are applied in sorted order for determinism).
func NewInjector(host transport.Host, net *simnet.Network, broker Broker,
	control string, sites map[string][]string, plan *Plan) *Injector {
	canon := make(map[string][]string, len(sites))
	for site, hosts := range sites {
		hs := append([]string(nil), hosts...)
		sort.Strings(hs)
		canon[site] = hs
	}
	return &Injector{host: host, net: net, broker: broker,
		control: control, sites: canon, plan: plan}
}

// action is one scheduled state flip: a fault starting or ending.
type action struct {
	at    time.Duration
	start bool
	event scenario.FaultEvent
}

// Start spawns the injector process. Plan offsets are relative to the
// instant Start is called (the session start, like a Conductor's). Ends
// sort before starts at equal instants, so a back-to-back blackout pair
// restarts the broker before taking it down again.
func (in *Injector) Start() {
	var acts []action
	for _, e := range in.plan.Events() {
		acts = append(acts, action{at: e.At, start: true, event: e})
		acts = append(acts, action{at: e.At + e.Dur, start: false, event: e})
	}
	sort.SliceStable(acts, func(i, j int) bool {
		if acts[i].at != acts[j].at {
			return acts[i].at < acts[j].at
		}
		return !acts[i].start && acts[j].start
	})
	base := in.host.Now()
	// lossActive counts overlapping bursts per rate contribution: the
	// control node's extra loss is their sum while any burst is live.
	lossActive := 0.0
	in.host.Go(func() {
		for _, a := range acts {
			if d := a.at - in.host.Now().Sub(base); d > 0 {
				in.host.Sleep(d)
			}
			in.apply(a, &lossActive)
		}
	})
}

func (in *Injector) apply(a action, lossActive *float64) {
	switch a.event.Kind {
	case scenario.FaultBrokerBlackout:
		if in.broker == nil {
			return
		}
		if a.start {
			in.broker.SetDown(true)
		} else {
			in.broker.Restart()
		}
	case scenario.FaultSitePartition:
		for _, h := range in.sites[a.event.Site] {
			in.net.Partition(h, in.control, a.start)
			in.net.Partition(in.control, h, a.start)
		}
	case scenario.FaultLossBurst:
		if a.start {
			*lossActive += a.event.Loss
		} else {
			*lossActive -= a.event.Loss
		}
		if *lossActive < 1e-12 {
			*lossActive = 0
		}
		in.net.SetExtraLoss(in.control, *lossActive)
	}
}
