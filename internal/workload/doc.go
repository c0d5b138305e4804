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
// A Workload's Flows is a pure function of (labels, seed); anything time-,
// order- or environment-dependent belongs in execution. Schedule is the
// pure view of a churn schedule, the Conductor its live executor,
// StartDynamics the one place they are wired to a world, Run the one
// dispatch to an engine, and SendRelaunched the one relaunch budget.
// DESIGN.md "Workload layer" states these rules in full.
package workload
