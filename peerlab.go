package peerlab

import (
	"errors"
	"fmt"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/experiments"
	"peerlab/internal/metrics"
	"peerlab/internal/overlay"
	"peerlab/internal/planetlab"
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
// ScenarioTable1, "uniform:N" or "heterogeneous:N" — so the same harness
// that regenerates the paper's 8-peer figures measures slices of hundreds
// of peers.
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
// granularity, size, churn, rep) — and executes every cell, one workload
// repetition per freshly deployed slice, across workers concurrent slots
// (0 = GOMAXPROCS). Axes the spec leaves unset default from the rest of the
// config: cfg.Scenario fills the scenario axis and cfg.Workload the
// workload axis (each scenario's own hint when that is empty too). reps is
// the repetitions per grid point (0 = the paper's 5) unless the spec's rep
// axis overrides it. Cell seeds derive from (cfg.Seed, axis coordinates),
// so the report is bit-identical at any workers value and invariant to the
// spec's axis ordering.
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
// scenarios are specified as "uniform:N" or "heterogeneous:N" with N peers.
const ScenarioTable1 = "table1"

// Config describes a deployment.
type Config struct {
	// Seed drives all randomness (jitter, wake lags, failures). Runs with
	// the same seed are identical. Synthetic scenarios also draw their
	// per-peer profiles from it.
	Seed int64
	// Scenario deploys a named slice scenario — ScenarioTable1 for the
	// paper's calibrated SC1..SC8 world, or "uniform:N"/"heterogeneous:N"
	// for synthesized slices of N peers. When set, Peers is ignored.
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
	// e.g. "granularity=1,4,16;size=50" or "model=all;churn=0.5,1,2,4".
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
type Deployment struct {
	net      *simnet.Network
	broker   *overlay.Broker
	ctl      *overlay.Client
	ctlNode  *simnet.Node
	peers    []string
	clients  map[string]*overlay.Client
	seed     int64
	workload workload.Workload

	// Churn state (zero on static deployments). peers then holds catalog
	// labels rather than hostnames, hostOf/labelOf translate, and dyn —
	// started by Run from sc and slice — owns the schedule, the live-client
	// map and, on fault scenarios, the injector.
	sc      scenario.Scenario
	slice   *scenario.Slice
	dyn     *workload.Dynamics
	hostOf  map[string]string
	labelOf map[string]string
}

// ErrNoPeers is returned when a deployment is configured without peers.
var ErrNoPeers = errors.New("peerlab: deployment needs at least one peer")

// Deploy builds the network and returns the deployment. All interaction —
// transfers, tasks, selection — must happen inside Run.
func Deploy(cfg Config) (*Deployment, error) {
	var (
		net     *simnet.Network
		ctlNode *simnet.Node
		peers   []PeerConfig
		sc      scenario.Scenario
		slice   *scenario.Slice
	)
	if cfg.Scenario != "" {
		var err error
		sc, err = scenario.Parse(cfg.Scenario)
		if err != nil {
			return nil, err
		}
		slice, err = scenario.Deploy(sc, cfg.Seed)
		if err != nil {
			return nil, err
		}
		net, ctlNode = slice.Net, slice.Control
		if sc.Churn == nil {
			// Static scenario: every catalog peer becomes a pre-started
			// client. Churning scenarios skip this — their membership
			// belongs to the conductor, which boots straight off the slice.
			for _, p := range slice.Catalog {
				peers = append(peers, PeerConfig{Name: p.Hostname, Profile: p.Profile})
			}
		}
	} else {
		if len(cfg.Peers) == 0 {
			return nil, ErrNoPeers
		}
		net = simnet.New(cfg.Seed)
		var err error
		ctlNode, err = net.AddNode("controller", planetlab.ControlProfile())
		if err != nil {
			return nil, err
		}
		peers = cfg.Peers
	}

	wlSpec := cfg.Workload
	if wlSpec == "" {
		if sc.Workload != "" {
			wlSpec = sc.Workload
		} else {
			wlSpec = "controller-fanout"
		}
	}
	wl, err := workload.Parse(wlSpec)
	if err != nil {
		return nil, err
	}

	// Static deployments keep the effectively-unbounded default lease TTL;
	// a churning scenario supplies its own short TTL and eager-sweep hint
	// so departed peers age out of the directory mid-session. The renewal
	// heartbeat (workload.StartDynamics) divides the same effective value.
	// The directory holds every peer that will register, plus the controller.
	registrants := len(peers) + 1
	if slice != nil {
		registrants = len(slice.Catalog) + 1
	}
	broker, err := overlay.NewBroker(ctlNode, overlay.BrokerConfig{
		AdvTTL:     sc.EffectiveAdvTTL(),
		LeaseSweep: sc.LeaseSweep,
		CacheLimit: max(overlay.DefaultCacheLimit, registrants),
	})
	if err != nil {
		return nil, err
	}
	d := &Deployment{
		net:      net,
		broker:   broker,
		ctlNode:  ctlNode,
		clients:  make(map[string]*overlay.Client),
		seed:     cfg.Seed,
		workload: wl,
		sc:       sc,
		slice:    slice,
	}
	// Where the control plane will fail on schedule the controller gets the
	// resilient call policy, like every peer StartDynamics boots. Elsewhere
	// the zero policy stands — one attempt, no deadline, hence no timer and
	// no extra draw — so committed figures cannot move.
	var policy overlay.CallPolicy
	if sc.Faults != nil {
		policy = overlay.DefaultCallPolicy()
	}
	d.ctl = overlay.NewClient(ctlNode, broker.Addr(), overlay.ClientConfig{CPUScore: 2, Call: policy})

	if sc.Churn != nil {
		// Membership belongs to the churn schedule: no static clients.
		// Peers are addressed by catalog label, and the conductor (started
		// in Run) boots and stops their clients on schedule.
		d.peers = append(d.peers, sc.Labels...)
		d.hostOf = make(map[string]string, len(slice.Catalog))
		d.labelOf = make(map[string]string, len(slice.Catalog))
		for _, p := range slice.Catalog {
			d.hostOf[p.Label] = p.Hostname
			d.labelOf[p.Hostname] = p.Label
		}
		return d, nil
	}

	for _, p := range peers {
		prof := p.Profile
		if prof.Bandwidth <= 0 {
			prof = simnet.DefaultProfile()
		}
		node := net.Node(p.Name)
		if node == nil {
			var err error
			node, err = net.AddNode(p.Name, prof)
			if err != nil {
				return nil, err
			}
		}
		d.peers = append(d.peers, p.Name)
		// Started by Run, inside the simulation.
		d.clients[p.Name] = overlay.NewClient(node, broker.Addr(), overlay.ClientConfig{CPUScore: prof.CPUScore})
	}
	return d, nil
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
	var err error
	d.net.Run(func() {
		if serr := d.ctl.Start(); serr != nil {
			err = fmt.Errorf("peerlab: controller: %w", serr)
			return
		}
		if d.sc.Churn != nil {
			if d.dyn, err = workload.StartDynamics(d.slice, d.broker, d.sc, d.seed); err != nil {
				return
			}
		}
		for _, name := range d.peers {
			if c := d.clients[name]; c != nil {
				if err = c.Start(); err != nil {
					err = fmt.Errorf("peerlab: start %s: %w", name, err)
					return
				}
			}
		}
		err = fn(&Session{d: d})
	})
	// Only now has the schedule fully drained (Run returns at quiescence):
	// a rejoin that failed after fn returned is still captured here.
	if err == nil && d.dyn != nil {
		err = d.dyn.Err()
	}
	return err
}

// Elapsed reports how much virtual time the deployment has consumed.
func (d *Deployment) Elapsed() time.Duration {
	return d.net.Scheduler().Elapsed()
}

// Peers returns the deployed peer names.
func (d *Deployment) Peers() []string {
	return append([]string(nil), d.peers...)
}

// Snapshots returns the broker's current per-peer statistics.
func (d *Deployment) Snapshots() []Snapshot {
	return d.broker.Registry().Snapshots()
}

// Now returns the current virtual time.
func (s *Session) Now() time.Time { return s.d.net.Now() }

// peerAddr resolves a Peers() value to the name the overlay addresses the
// peer by. Static deployments already hand out hostnames; churn deployments
// hand out catalog labels (the schedule's addressing unit), which direct
// Session sends translate back to hostnames here.
func (d *Deployment) peerAddr(peer string) string {
	if host, ok := d.hostOf[peer]; ok {
		return host
	}
	return peer
}

// Sleep advances virtual time for the driver.
func (s *Session) Sleep(dur time.Duration) { s.d.net.Scheduler().Sleep(dur) }

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
	env := workload.Env{
		Host:         d.ctlNode,
		Control:      d.ctl,
		Clients:      d.clients,
		ExcludeSinks: []string{d.ctl.Name()},
	}
	if d.dyn != nil {
		env.HostOf = func(label string) string { return d.hostOf[label] }
		env.LabelOf = func(host string) string { return d.labelOf[host] }
	}
	out, err := workload.Run(env, d.dyn, wl, wl.Flows(d.peers, d.seed), d.seed)
	return out.Results, err
}

// PeersDeparted reports how many departures (up→down transitions) the
// deployment's churn schedule contains; zero on static deployments.
func (s *Session) PeersDeparted() int {
	if s.d.dyn == nil {
		return 0
	}
	return s.d.dyn.Schedule.Departures()
}

// SelectPeers asks the broker to rank peers with the named model (see the
// Model constants). For ModelQuickPeer, preferred carries the user's own
// remembered ranking, fastest first. Names — preferred entries in, ranked
// peers out — are Peers() values: on a churn deployment they are catalog
// labels and translate to/from the broker's hostnames here, like every
// other Session method.
func (s *Session) SelectPeers(model string, req SelectionRequest, max int, preferred []string) ([]string, error) {
	d := s.d
	if d.dyn == nil {
		return d.ctl.SelectPeers(model, req, max, preferred)
	}
	pref := make([]string, len(preferred))
	for i, p := range preferred {
		pref[i] = d.peerAddr(p)
	}
	ranked, err := d.ctl.SelectPeers(model, req, max, pref)
	if err != nil {
		return nil, err
	}
	for i, host := range ranked {
		if label, ok := d.labelOf[host]; ok {
			ranked[i] = label
		}
	}
	return ranked, nil
}

// Snapshots returns the broker's statistics mid-run.
func (s *Session) Snapshots() []Snapshot {
	return s.d.broker.Registry().Snapshots()
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
	return &Group{s: s, join: vtime.NewQueue(s.d.net.Scheduler())}
}

// Go starts fn as a simulation process tracked by the group.
func (g *Group) Go(fn func() error) {
	g.n++
	g.s.d.net.Scheduler().Go(func() {
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
