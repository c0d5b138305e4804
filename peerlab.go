package peerlab

import (
	"errors"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/experiments"
	"peerlab/internal/metrics"
	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
	"peerlab/internal/stats"
	"peerlab/internal/task"
	"peerlab/internal/transfer"
	"peerlab/internal/vtime"
	"peerlab/internal/workload"
)

// Mb is the paper's file-size unit (10^6 bytes).
const Mb = transfer.Mb

// Re-exported result and request types.
type (
	// TransferMetrics is the full timing record of one file transfer.
	TransferMetrics = transfer.Metrics
	// File is a transferable file (virtual or with real bytes).
	File = transfer.File
	// Task is one executable work item.
	Task = task.Task
	// TaskResult reports one finished task.
	TaskResult = task.Result
	// Snapshot is a peer's statistics view.
	Snapshot = stats.Snapshot
	// SelectionRequest describes work a peer must be selected for.
	SelectionRequest = core.Request
	// Flow names one workload transfer: source, sink (fixed or
	// model-selected), payload and granularity.
	Flow = workload.Flow
	// FlowResult is one executed workload flow: the flow, its resolved
	// sink, and the surviving attempt's transfer metrics.
	FlowResult = workload.Result
)

// Selection request kinds.
const (
	KindMessage      = core.KindMessage
	KindFileTransfer = core.KindFileTransfer
	KindTask         = core.KindTask
)

// Selection model names accepted by SelectPeers.
const (
	ModelBlind        = "blind"
	ModelEconomic     = "economic"
	ModelSamePriority = "same-priority"
	ModelQuickPeer    = "quick-peer"
)

// NewVirtualFile describes a file of the given size without materializing
// its content; the simulated transport charges for the declared size.
func NewVirtualFile(name string, size int, seed int64) File {
	return transfer.NewVirtualFile(name, size, seed)
}

// NewFile wraps real bytes (verified end to end by checksum).
func NewFile(name string, data []byte) File { return transfer.NewFile(name, data) }

// Figure is a labeled group of result series — one regenerated chart.
type Figure = metrics.Figure

// FigureSuite is the paper's full regenerated evaluation: Table 1 plus
// Figures 2–7 in paper order.
type FigureSuite = experiments.Suite

// ReproduceFigures regenerates the paper's evaluation on the parallel
// experiment runner: every (scenario, peer, repetition) cell deploys its own
// simulated slice and the cells fan out across workers concurrent slots
// (0 = GOMAXPROCS). Cell seeds derive deterministically from the root seed,
// so the suite is bit-identical for a given seed at any worker count. reps
// is the repetitions averaged per data point (0 = the paper's 5).
func ReproduceFigures(seed int64, reps, workers int) (*FigureSuite, error) {
	return ReproduceScenario(ScenarioTable1, seed, reps, workers)
}

// ReproduceScenario is ReproduceFigures on an arbitrary scenario spec —
// ScenarioTable1, "uniform:N", "heterogeneous:N", "zipf:N", or the catalog
// of "churn:N" / "faults:N" as a static slice (figures ignore membership
// schedules and fault plans) — so the same harness that regenerates the
// paper's 8-peer figures measures slices of hundreds of peers.
func ReproduceScenario(spec string, seed int64, reps, workers int) (*FigureSuite, error) {
	sc, err := scenario.Parse(spec)
	if err != nil {
		return nil, err
	}
	return experiments.FigureSuite(experiments.Config{
		Seed: seed, Reps: reps, Workers: workers, Scenario: sc,
	})
}

// SweepReport is a sweep grid's result: per-cell records in canonical
// expansion order plus per-axis marginal summaries.
type SweepReport = experiments.SweepReport

// RunSweep expands cfg.Sweep — a grid spec like
// "scenario=table1,churn:64;model=all" (axes: scenario, workload, model,
// granularity, size, pick, choke, churn, fault, rep) — and executes every
// cell, one workload repetition per freshly deployed slice, across workers
// concurrent slots (0 = GOMAXPROCS). pick and choke set a dissemination
// workload's piece-picking and choking policies; churn and fault scale a
// "churn:N" / "faults:N" scenario's dynamics. Axes the spec leaves unset
// default from the rest of the config: cfg.Scenario fills the scenario axis
// and cfg.Workload the workload axis (each scenario's own hint when that is
// empty too). reps is the repetitions per grid point (0 = the paper's 5)
// unless the spec's rep axis overrides it. Cell seeds derive from
// (cfg.Seed, axis coordinates), so the report is bit-identical at any
// workers value and invariant to the spec's axis ordering.
func RunSweep(cfg Config, reps, workers int) (*SweepReport, error) {
	sw, err := experiments.ParseSweep(cfg.Sweep)
	if err != nil {
		return nil, err
	}
	ecfg := experiments.Config{Seed: cfg.Seed, Reps: reps, Workers: workers}
	if len(sw.Scenarios) == 0 && cfg.Scenario != "" {
		sw.Scenarios = []string{cfg.Scenario}
	}
	if len(sw.Workloads) == 0 && cfg.Workload != "" {
		sw.Workloads = []string{cfg.Workload}
	}
	return experiments.RunSweep(ecfg, sw)
}

// PeerConfig describes one peer node in a deployment.
type PeerConfig struct {
	// Name is the node's hostname. Required, unique.
	Name string
	// Profile describes the node's link and load; zero value gets a
	// well-connected default.
	Profile simnet.Profile
}

// ScenarioTable1 is the paper's calibrated Table-1 scenario name. Synthetic
// scenarios are specified as "uniform:N", "heterogeneous:N", "zipf:N",
// "churn:N" or "faults:N" with N peers.
const ScenarioTable1 = "table1"

// Config describes a deployment.
type Config struct {
	// Seed drives all randomness (jitter, wake lags, failures). Runs with
	// the same seed are identical. Synthetic scenarios also draw their
	// per-peer profiles from it.
	Seed int64
	// Scenario deploys a named slice scenario — ScenarioTable1 for the
	// paper's calibrated SC1..SC8 world, or a synthesized slice of N peers:
	// "uniform:N", "heterogeneous:N" (a three-class PlanetLab mixture),
	// "zipf:N" (Zipf-distributed bandwidths), "churn:N" (peers join, leave
	// and rejoin on a seed-derived schedule) or "faults:N" (the control
	// plane fails on schedule). When set, Peers is ignored.
	Scenario string
	// Peers lists the client nodes explicitly. Leave empty and set
	// Scenario to deploy a scenario instead.
	Peers []PeerConfig
	// Workload names the deployment's default flow set for
	// Session.RunWorkload — "controller-fanout" (the paper's shape),
	// "swarm:N" or "allpairs:N" for peer↔peer traffic where each source
	// peer consults the broker's selection service itself, or
	// "disseminate:N" / "stream:N" for a piece-level swarm. Empty means the
	// scenario's own hint (zipf:N hints a dissemination workload, churn:N
	// and faults:N a swarm), else controller-fanout.
	Workload string
	// Sweep is the grid spec RunSweep expands over this configuration —
	// e.g. "granularity=1,4,16;size=50", "model=all;churn=0.5,1,2,4",
	// "pick=rarest,sequential;choke=tft,none" or "fault=0.5,1,2,4".
	// Axes the spec leaves unset default from Scenario and Workload. Deploy
	// ignores it: a sweep deploys one fresh slice per grid cell rather than
	// running inside a live deployment.
	Sweep string
}

// Deployment is a running simulated overlay: one broker ("governor"), one
// controller client that the application drives, and a set of peer clients —
// each of which can originate transfers of its own (see Session.RunWorkload).
// On a churning scenario ("churn:N") the peer set is not static: clients
// join, leave and rejoin on the scenario's schedule while the session runs.
//
// The world underneath is an experiments.Env — the same deploy-and-boot path
// every figure and sweep cell is measured in.
type Deployment struct {
	env *experiments.Env
	// peers are the Peers() values, the world's peer labels: hostnames on a
	// static deployment, catalog labels (the schedule's addressing unit) on
	// a churning one.
	peers    []string
	seed     int64
	workload workload.Workload
	ctl      *overlay.Client // the controller, running for the duration of Run
}

// ErrNoPeers is returned when a deployment is configured without peers.
var ErrNoPeers = errors.New("peerlab: deployment needs at least one peer")

// byHostname returns sc over the fixed peer list, each peer labeled by its
// hostname — how a static deployment names its peers. The scenario's
// label-keyed hints no longer resolve and are dropped.
func byHostname(sc scenario.Scenario, peers []scenario.Peer) scenario.Scenario {
	sc.Labels = make([]string, len(peers))
	for i := range peers {
		peers[i].Label = peers[i].Hostname
		sc.Labels[i] = peers[i].Hostname
	}
	sc.Entry = func(_ int64, i int) scenario.Peer { return peers[i] }
	sc.Remembered, sc.Blemished = nil, nil
	return sc
}

// Deploy builds the network and returns the deployment. All interaction —
// transfers, tasks, selection — must happen inside Run.
func Deploy(cfg Config) (*Deployment, error) {
	var sc scenario.Scenario
	if cfg.Scenario != "" {
		var err error
		if sc, err = scenario.Parse(cfg.Scenario); err != nil {
			return nil, err
		}
		if sc.Churn == nil {
			sc = byHostname(sc, sc.Synthesize(cfg.Seed))
		}
	} else {
		if len(cfg.Peers) == 0 {
			return nil, ErrNoPeers
		}
		peers := make([]scenario.Peer, len(cfg.Peers))
		for i, p := range cfg.Peers {
			peers[i] = scenario.Peer{Hostname: p.Name, Profile: p.Profile}
			if p.Profile.Bandwidth <= 0 {
				peers[i].Profile = simnet.DefaultProfile()
			}
		}
		sc = byHostname(scenario.Scenario{
			Name:    "peers",
			Control: scenario.Peer{Label: "controller", Hostname: "controller", Profile: scenario.ControlProfile()},
		}, peers)
	}
	var wl workload.Workload
	if cfg.Workload != "" {
		var err error
		if wl, err = workload.Parse(cfg.Workload); err != nil {
			return nil, err
		}
	}
	wl, err := experiments.ResolveWorkload(wl, sc)
	if err != nil {
		return nil, err
	}
	// The facade's Seed 0 is seed 0: NewEnv takes its Config as given.
	env, err := experiments.NewEnv(experiments.Config{Seed: cfg.Seed, Scenario: sc})
	if err != nil {
		return nil, err
	}
	return &Deployment{env: env, peers: sc.Labels, seed: cfg.Seed, workload: wl}, nil
}

// Session is the application's handle during Run: every method executes on
// simulated time.
type Session struct {
	d *Deployment
}

// Run boots the overlay (broker is already serving; clients register) and
// executes fn as the driver process. It returns fn's error after the
// network quiesces. On a churning deployment the initial population boots
// first, then the schedule runs alongside fn: joins and leaves fire on
// virtual time whether or not fn is watching. The elapsed virtual time is
// available via Elapsed.
func (d *Deployment) Run(fn func(s *Session) error) error {
	return d.env.RunPeers(nil, func(ctl *overlay.Client, _ map[string]*overlay.Client) error {
		d.ctl = ctl
		return fn(&Session{d: d})
	})
}

// Elapsed reports how much virtual time the deployment has consumed: virtual
// time up to its world's last event. After Run that is the instant the world
// went quiet, whether the driver or the churn schedule acted last.
func (d *Deployment) Elapsed() time.Duration {
	return d.env.Slice.Net.Scheduler().Elapsed()
}

// Peers returns the deployed peer names.
func (d *Deployment) Peers() []string {
	return append([]string(nil), d.peers...)
}

// Snapshots returns the broker's current per-peer statistics.
func (d *Deployment) Snapshots() []Snapshot {
	return d.env.Broker.Registry().Snapshots()
}

// Now returns the current virtual time.
func (s *Session) Now() time.Time { return s.d.env.Slice.Net.Now() }

// peerAddr resolves a Peers() value to the name the overlay addresses the
// peer by. Static deployments already hand out hostnames; churn deployments
// hand out catalog labels (the schedule's addressing unit), which direct
// Session sends translate back to hostnames here.
func (d *Deployment) peerAddr(peer string) string {
	if host := d.env.Host(peer); host != "" {
		return host
	}
	return peer
}

// Sleep advances virtual time for the driver.
func (s *Session) Sleep(dur time.Duration) { s.d.env.Slice.Net.Scheduler().Sleep(dur) }

// SendFile transmits a file from the controller to the named peer (a
// Peers() value), split into parts (1 = whole), confirming each part as in
// the paper's protocol.
func (s *Session) SendFile(peer string, f File, parts int) (TransferMetrics, error) {
	return s.d.ctl.SendFile(s.d.peerAddr(peer), f, parts)
}

// SubmitTask runs a task on the named peer and waits for its result.
func (s *Session) SubmitTask(peer string, t Task) (TaskResult, error) {
	return s.d.ctl.SubmitTask(s.d.peerAddr(peer), t)
}

// SendInstant delivers an instant message to the named peer.
func (s *Session) SendInstant(peer, text string) error {
	return s.d.ctl.SendInstant(s.d.peerAddr(peer), text)
}

// RunWorkload executes a flow workload over the deployment: every flow runs
// as its own concurrent simulation process, peer-sourced flows originate at
// their peer's client, and flows without a fixed sink have their source call
// the broker's selection service itself before transmitting. spec names the
// workload — "controller-fanout", "swarm:N", "allpairs:N", or the
// piece-level "disseminate:N" / "stream:N" (optionally with
// ";pick=...;choke=...;pieces=..."), which run the multi-round piece engine
// and report Pieces, Stalls and ReOriginated per downloader. "" runs the
// deployment's configured workload: Config.Workload, else the scenario's
// own hint, else controller-fanout. On a churning deployment flows resolve
// against live membership and a failed flow is recorded in its result
// (Err), not returned. Results come back in flow-index order,
// deterministically for the deployment's seed.
func (s *Session) RunWorkload(spec string) ([]FlowResult, error) {
	d := s.d
	wl := d.workload
	if spec != "" {
		var err error
		if wl, err = workload.Parse(spec); err != nil {
			return nil, err
		}
	}
	out, err := workload.Run(d.env.Workload(d.ctl), d.env.Dynamics, wl, wl.Flows(d.peers, d.seed), d.seed)
	return out.Results, err
}

// PeersDeparted reports how many departures (up→down transitions) the
// deployment's churn schedule contains; zero on static deployments.
func (s *Session) PeersDeparted() int {
	if s.d.env.Dynamics == nil {
		return 0
	}
	return s.d.env.Dynamics.Schedule.Departures()
}

// SelectPeers asks the broker to rank peers with the named model (see the
// Model constants). For ModelQuickPeer, preferred carries the user's own
// remembered ranking, fastest first. Names — preferred entries in, ranked
// peers out — are Peers() values: on a churn deployment they are catalog
// labels and translate to/from the broker's hostnames here, like every
// other Session method.
func (s *Session) SelectPeers(model string, req SelectionRequest, max int, preferred []string) ([]string, error) {
	d := s.d
	pref := make([]string, len(preferred))
	for i, p := range preferred {
		pref[i] = d.peerAddr(p)
	}
	ranked, err := d.ctl.SelectPeers(model, req, max, pref)
	if err != nil {
		return nil, err
	}
	for i, host := range ranked {
		if label := d.env.Label(host); label != "" {
			ranked[i] = label
		}
	}
	return ranked, nil
}

// Snapshots returns the broker's statistics mid-run.
func (s *Session) Snapshots() []Snapshot {
	return s.d.Snapshots()
}

// Group runs functions as concurrent simulation processes and joins them.
// Raw goroutines and channels must NOT be used inside Run — a goroutine
// blocking outside the scheduler stalls the virtual clock; Group is the
// supported fan-out primitive.
type Group struct {
	s    *Session
	join *vtime.Queue
	n    int
}

// Group returns an empty process group.
func (s *Session) Group() *Group {
	return &Group{s: s, join: vtime.NewQueue(s.d.env.Slice.Net.Scheduler())}
}

// Go starts fn as a simulation process tracked by the group.
func (g *Group) Go(fn func() error) {
	g.n++
	g.s.d.env.Slice.Net.Scheduler().Go(func() {
		g.join.Push(fn())
	})
}

// Wait blocks the caller (on virtual time) until every process finishes,
// returning the first non-nil error.
func (g *Group) Wait() error {
	var first error
	for i := 0; i < g.n; i++ {
		v, qerr := g.join.Pop()
		if qerr != nil {
			return errors.New("peerlab: group join queue closed")
		}
		if err, ok := v.(error); ok && err != nil && first == nil {
			first = err
		}
	}
	g.n = 0
	return first
}
