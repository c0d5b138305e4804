// Package workload lifts the traffic model into a first-class layer: a Flow
// names one (source, sink, payload, selection-model) transfer, and a
// Workload is a deterministic, seed-derived set of flows that an experiment
// cell — or an interactive session — executes over a deployed slice.
//
// The paper only ever measures controller→peer flows: "controller-fanout"
// reproduces that shape, while "swarm:N" and "allpairs:N" drive peer↔peer
// transfers in which each source client calls the broker's selection
// service itself before transmitting — the multi-source regime
// BitTorrent-style studies (Rao et al., Legout et al.) require — and
// "disseminate:N" / "stream:N" move one payload piece by piece.
//
// # Ownership rules
//
// Purity rule: a Workload's Flows function must be a pure function of
// (labels, seed). The experiment runner materializes the flow set once per
// cell from the cell's derived seed, and per-flow payload seeds derive via
// SplitMix64 (FlowSeed), so workload output is bit-identical at any worker
// or broker-shard count. Anything time-, order- or environment-dependent
// belongs in execution, never in flow synthesis. The same split governs
// churn: Schedule is the pure, queryable view of a scenario's membership
// schedule (ResolveSources, staleness audits and tests consult it freely),
// while the Conductor owns everything live — it alone boots and stops
// clients, holds the live-client map Run hands the executors as
// Env.Clients, and runs the lease-renewal heartbeat.
//
// Execution has one entry per decision, shared by the experiment cells and
// the public facade: StartDynamics wires a scenario's schedule, conductor,
// fault plan and injector (the only caller of NewConductor and of inject,
// the conductor's twin that replays a fault plan and draws nothing), and Run
// dispatches a flow set to its engine — ExecuteDisseminate for a
// piece-level workload, Execute otherwise — over static or live membership. Any client may originate transfers: every flow
// is its own virtual-time process, resolving the source's client and —
// when the flow says so — the source's own selection call, with the control
// node excluded from sink candidacy.
//
// SendRelaunched owns the shared ≤Attempts relaunch budget for
// transmissions the pipe layer abandons outright; the figure cells delegate
// to it so figures and workloads cannot drift, and exhausting the budget
// logs an operator-visible warning naming the flow. Only a transient
// transfer failure is relaunched: a source whose client stopped fails once.
package workload
