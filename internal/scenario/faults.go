// Fault plans: deterministic control-plane fault schedules (broker
// blackouts, site partitions, loss bursts) drawn from the seed exactly like
// churn schedules. The scenario layer only *describes* faults — pure data
// from (labels, seed) — and the workload layer's injector executes them.

package scenario

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"time"

	"peerlab/internal/transport"
)

// FaultKind classifies a fault event.
type FaultKind int

const (
	// FaultBrokerBlackout takes the broker down for the event's duration;
	// on recovery the broker restarts with a cold cache (every lease
	// wiped), forcing peers to re-register or be resurrected by their next
	// stats report.
	FaultBrokerBlackout FaultKind = iota
	// FaultSitePartition severs the named site from the control node (both
	// directions) for the duration — the site's peers stay up and keep
	// serving transfers, but cannot reach the broker.
	FaultSitePartition
	// FaultLossBurst adds Loss extra drop probability to every message to
	// or from the control node for the duration — a congested or flapping
	// uplink at the hosting site rather than a clean partition.
	FaultLossBurst
)

// String names the kind for specs and logs.
func (k FaultKind) String() string {
	switch k {
	case FaultBrokerBlackout:
		return "blackout"
	case FaultSitePartition:
		return "partition"
	case FaultLossBurst:
		return "loss"
	default:
		return fmt.Sprintf("faultkind(%d)", int(k))
	}
}

// FaultEvent is one scheduled fault: at session offset At, for Dur.
type FaultEvent struct {
	// At is the fault's start offset from session start.
	At time.Duration
	// Dur is how long the fault lasts; the end offset is At+Dur.
	Dur time.Duration
	// Kind says what breaks.
	Kind FaultKind
	// Site names the partitioned site (FaultSitePartition only).
	Site string
	// Loss is the extra drop probability in (0, 1] (FaultLossBurst only).
	Loss float64
}

// SortFaultEvents orders events canonically: by start offset, then kind,
// then site. A generated plan comes back in this order, and the injector
// applies same-instant faults in it, so what a plan does is a pure function
// of its event set.
func SortFaultEvents(events []FaultEvent) {
	sort.Slice(events, func(i, j int) bool {
		if events[i].At != events[j].At {
			return events[i].At < events[j].At
		}
		if events[i].Kind != events[j].Kind {
			return events[i].Kind < events[j].Kind
		}
		return events[i].Site < events[j].Site
	})
}

// BrokerDowntime returns the total broker-blackout time of a plan, with
// overlapping blackout intervals merged — the session's broker-unavailable
// budget. It is plan-derived, not runtime-observed, so it is identical at
// any worker or shard count by construction.
func BrokerDowntime(events []FaultEvent) time.Duration {
	type iv struct{ from, to time.Duration }
	var ivs []iv
	for _, e := range events {
		if e.Kind == FaultBrokerBlackout {
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

// Faulty describes a faults:N slice: the Heterogeneous three-class mixture
// with static membership (every peer joins at offset 0 and stays), run
// against a control plane that fails on schedule — broker blackouts, site
// partitions, loss bursts — drawn from the seed exactly like a churn
// schedule. Membership is routed through the churn runtime (conductor,
// heartbeats, short leases) so peers renew leases and the broker's
// directory can be rebuilt after a blackout wipes it.
func Faulty(n int) Scenario { return FaultyRated(n, 1) }

// FaultyRated is Faulty with its fault intensity scaled by rate: each fault
// candidate's admission probability is multiplied by rate (capped at 1),
// every draw consumed at every rate (DESIGN.md "Fault-rate purity"). rate 1
// is byte-identical to Faulty; rate <= 0 is treated as 1.
func FaultyRated(n int, rate float64) Scenario {
	if !(rate > 0) || math.IsInf(rate, 1) {
		rate = 1
	}
	sc := synthetic("faults", "faults", n, churnSite, heterogeneousProfile)
	labels := sc.Labels
	sc.Workload = fmt.Sprintf("swarm:%d", n)
	sc.Churn = func(seed int64) []ChurnEvent {
		// Static membership, expressed as a schedule so the churn
		// runtime (heartbeats, short leases) carries this scenario.
		events := make([]ChurnEvent, len(labels))
		for i, l := range labels {
			events[i] = ChurnEvent{At: 0, Label: l, Kind: ChurnJoin}
		}
		return events
	}
	sc.Horizon, sc.AdvTTL = churnHorizon, churnAdvTTL
	sc.Faults = func(seed int64) []FaultEvent { return faultSchedule(labels, seed, rate) }
	sc.FaultRate = func(r float64) Scenario { return FaultyRated(n, r) }
	return sc
}

// Fault-schedule shape constants. The horizon (churnHorizon, 10 min) is cut
// into faultPhases equal phases; each phase holds at most one blackout and
// one loss burst, placed so a fault never straddles its phase boundary —
// admitted candidates therefore never overlap within their kind, at any
// rate.
const (
	faultPhases    = 3
	faultBurstLoss = 0.35
)

// Per-phase admission probabilities at rate 1. Descending, so rate 1 gives
// roughly one blackout and one burst per session and higher rates light up
// the later phases.
var (
	blackoutP = [faultPhases]float64{0.8, 0.35, 0.15}
	burstP    = [faultPhases]float64{0.7, 0.3, 0.15}
)

// sitePartitionP is the per-site partition admission probability at rate 1.
const sitePartitionP = 0.45

// faultRand derives a fault draw stream from the seed and a tag; tags
// decorrelate the blackout, burst and per-site streams from each other and
// from the churn and profile streams.
func faultRand(seed int64, tag uint64) *rand.Rand {
	return transport.NewRand(int64(Mix64(Mix64(uint64(seed)^tag) + 1)))
}

// blackoutRand returns the broker-blackout draw stream.
func blackoutRand(seed int64) *rand.Rand { return faultRand(seed, 0xb1ac) }

// lossRand returns the loss-burst draw stream.
func lossRand(seed int64) *rand.Rand { return faultRand(seed, 0x105b) }

// siteFaultRand returns site s's partition draw stream.
func siteFaultRand(seed int64, s int) *rand.Rand {
	return faultRand(int64(Mix64(uint64(seed))^uint64(s+1)), 0xfa17)
}

// faultSchedule draws the fault plan: per-phase broker blackouts and loss
// bursts plus per-site partitions, in canonical order. The purity rule
// matches churnSchedule: every draw is always consumed — admission, start
// and duration are drawn for every candidate whether or not it is admitted
// — and rate scales only the admission comparisons, so schedules at
// different rates agree on every shared candidate.
func faultSchedule(labels []string, seed int64, rate float64) []FaultEvent {
	var events []FaultEvent
	phase := churnHorizon / faultPhases
	ph := float64(phase)

	br := blackoutRand(seed)
	for k := 0; k < faultPhases; k++ {
		admit := br.Float64() < cappedP(blackoutP[k], rate)
		at := time.Duration(k)*phase + time.Duration(uniformIn(br, 0.10*ph, 0.55*ph))
		dur := time.Duration(uniformIn(br, 0.15*ph, 0.375*ph))
		if admit {
			events = append(events, FaultEvent{At: at, Dur: dur, Kind: FaultBrokerBlackout})
		}
	}

	lr := lossRand(seed)
	for k := 0; k < faultPhases; k++ {
		admit := lr.Float64() < cappedP(burstP[k], rate)
		at := time.Duration(k)*phase + time.Duration(uniformIn(lr, 0.05*ph, 0.65*ph))
		dur := time.Duration(uniformIn(lr, 0.10*ph, 0.30*ph))
		if admit {
			events = append(events, FaultEvent{At: at, Dur: dur, Kind: FaultLossBurst, Loss: faultBurstLoss})
		}
	}

	h := float64(churnHorizon)
	sites := (len(labels) + churnSiteSize - 1) / churnSiteSize
	for s := 0; s < sites; s++ {
		r := siteFaultRand(seed, s)
		admit := r.Float64() < cappedP(sitePartitionP, rate)
		at := time.Duration(uniformIn(r, h/5, 4*h/5))
		dur := time.Duration(uniformIn(r, float64(30*time.Second), float64(90*time.Second)))
		if admit {
			events = append(events, FaultEvent{At: at, Dur: dur, Kind: FaultSitePartition, Site: churnSite(s * churnSiteSize)})
		}
	}

	SortFaultEvents(events)
	return events
}

// cappedP scales an admission probability by rate, capped at 1.
func cappedP(p, rate float64) float64 {
	if p *= rate; p > 1 {
		return 1
	}
	return p
}
