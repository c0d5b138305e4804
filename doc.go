// Package peerlab is the public face of a reproduction of Xhafa, Barolli,
// Fernández and Daradoumis, "An Experimental Study on Peer Selection in a
// P2P Network over PlanetLab" (ICPP Workshops 2007).
//
// It assembles the repo's subsystems — a virtual-time network simulator
// calibrated to the paper's PlanetLab measurements, a JXTA-Overlay-style
// platform (broker, primitives, SimpleClients), the paper's three
// peer-selection models plus a blind baseline, file transmission with
// configurable granularity, and task execution — behind one deployment
// type. The package's Example functions show the intended usage; the
// experiment harness in internal/experiments regenerates every table and
// figure of the paper on top of the same API surface.
//
// A Deployment runs on simulated time: a scenario spanning hours of
// transfers finishes in milliseconds of wall time, deterministically for a
// given seed.
//
// # The layers underneath
//
// Config names a scenario (the slice: internal/scenario), a workload (the
// traffic: internal/workload) and a seed; everything else is derived. Three
// rules keep a deployment reproducible, and user code must respect them:
//
//   - Everything runs inside Run. Raw goroutines and channels stall the
//     virtual clock; Session.Group is the supported fan-out primitive.
//   - Scenarios and workloads are pure seed-derived data. Same Config,
//     same run — bit for bit — including churn schedules ("churn:N"), whose
//     joins and leaves execute on virtual time while Run's function drives
//     traffic.
//   - The broker owns all shared state (directory, statistics, leases);
//     clients and sessions only message it. Under churn the broker tracks
//     membership through short advertisement leases: a departed peer ages
//     out of selection within its lease TTL, never later.
package peerlab
