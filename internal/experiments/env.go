package experiments

import (
	"fmt"
	"runtime"
	"time"

	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// Config controls an experiment run.
type Config struct {
	// Seed drives every random draw; runs with equal seeds are identical.
	Seed int64
	// Reps is the number of repetitions averaged per data point (the paper
	// uses 5).
	Reps int
	// Workers bounds how many experiment cells run concurrently, each on its
	// own freshly deployed slice. 0 means GOMAXPROCS. Cell seeds derive from
	// (Seed, figure, cell index), so results are bit-identical for a given
	// Seed at any worker count, including 1.
	Workers int
	// Scenario describes the slice under test. The zero value deploys the
	// paper's calibrated Table-1 world (scenario.Table1()). Synthetic
	// scenarios draw their catalogs from each cell's derived seed, so they
	// stay bit-identical at any worker count too.
	Scenario scenario.Scenario
	// Shards is the broker's shard count (default 1). Whole-network reads
	// aggregate across shards in canonical order, so figures are identical
	// at any shard count.
	Shards int
	// CacheLimit bounds each broker shard's advertisement directory. 0 =
	// the broker's default, or the deployed catalog plus the controller
	// when that is larger, so the whole directory stays resident: once
	// shards evict, which entries survive depends on how the catalog
	// hashed across shards, and results stop being shard-count invariant.
	CacheLimit int
	// Workload is the flow set RunWorkload executes — who sends to whom.
	// The zero value resolves to the scenario's workload hint, and failing
	// that to controller-fanout (the paper's traffic shape). Figures always
	// measure controller-fanout traffic regardless of this field.
	Workload workload.Workload

	// logf receives operator-visible warnings from inside cells (relaunch
	// budget exhaustion, see workload.SendRelaunched). nil falls back to the
	// process default logger. Sweep runs install a per-cell collector here
	// so warnings from concurrent cells land in the cell's own record
	// instead of interleaving on stderr.
	logf func(format string, args ...any)
	// pool and memo, when set, are shared across the figures of one
	// RunFigures call: one worker budget, and one run of every cell batch
	// two figures are views of.
	pool *workerPool
	memo *batchMemo
}

// WithDefaults resolves every defaulted input — the values the cells
// actually derive from, and the ones a run record must name.
func (c Config) WithDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2007
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Scenario.IsZero() {
		c.Scenario = scenario.Table1()
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// IdleGap is the virtual-time gap between repetitions, long enough for peers
// to fall idle again (wake lag re-applies).
const IdleGap = 10 * time.Minute

// Env is one deployed world: the slice, its broker and — for the duration of
// a RunPeers call — its running clients and dynamics. It is the only place a
// broker or an overlay client is built on a simulated slice: experiment
// cells, the public facade and the repository benchmark's staged replay all
// get their world here.
type Env struct {
	Slice  *scenario.Slice
	Broker *overlay.Broker
	// Clients maps peer label to the running client for every peer the
	// current RunPeers call started (set for the duration of fn).
	Clients map[string]*overlay.Client
	// Dynamics is the scenario's live membership and fault plan, started by
	// RunPeers before fn runs; nil on a static scenario.
	Dynamics *workload.Dynamics
	sc       scenario.Scenario
	seed     int64
	hostOf   map[string]string // peer label -> hostname
	labelOf  map[string]string // hostname -> peer label
}

// NewEnv deploys the configured scenario and builds (but does not yet
// start) the overlay; RunPeers boots it inside the network's scheduler. cfg
// is taken as given — Seed 0 is seed 0 — so callers that want the
// experiment defaults resolve them first (Config.WithDefaults).
func NewEnv(cfg Config) (*Env, error) { return NewEnvFor(cfg, nil) }

// NewEnvFor is NewEnv for a cell that interacts only with the named peer
// labels: the deployment materializes just those peers
// (scenario.DeployPeers), so a per-peer cell on a 100k-peer directory pays
// for two nodes, not 100k. No labels — or a churning scenario, whose joins
// may name any catalog peer — deploys the full catalog. The scenario's
// Remembered peers ride along in every subset: their hostnames appear in
// quick-peer selection requests (workload.Env.Preferred), so dropping them
// would change request bytes, and with them virtual timing. What the world
// runs is read off the scenario (DESIGN.md "One world builder").
func NewEnvFor(cfg Config, peers []string) (*Env, error) {
	sc := cfg.Scenario
	var deploy []string
	if len(peers) > 0 && sc.Churn == nil {
		deploy = append(append(make([]string, 0, len(peers)+len(sc.Remembered)), peers...), sc.Remembered...)
	}
	s, err := scenario.DeployPeers(sc, cfg.Seed, deploy)
	if err != nil {
		return nil, err
	}
	bcfg := overlay.BrokerConfig{AdvTTL: sc.EffectiveAdvTTL(), Shards: cfg.Shards, CacheLimit: cfg.CacheLimit}
	if bcfg.CacheLimit == 0 {
		// Every deployed peer plus the controller registers; the directory
		// must hold them all or selection ranks whatever survived eviction.
		bcfg.CacheLimit = max(overlay.DefaultCacheLimit, len(s.Catalog)+1)
	}
	broker, err := overlay.NewBroker(s.Control, bcfg)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Slice:   s,
		Broker:  broker,
		sc:      sc,
		seed:    cfg.Seed,
		hostOf:  make(map[string]string, len(s.Catalog)),
		labelOf: make(map[string]string, len(s.Catalog)),
	}
	for _, p := range s.Catalog {
		env.hostOf[p.Label] = p.Hostname
		env.labelOf[p.Hostname] = p.Label
	}
	return env, nil
}

// Host returns the hostname behind a peer label.
func (e *Env) Host(label string) string { return e.hostOf[label] }

// Label returns the peer label behind a hostname (the inverse of Host).
func (e *Env) Label(host string) string { return e.labelOf[host] }

// Workload returns the flow-execution environment of the running world —
// the one place a workload.Env is built: who the clients are, how labels map
// to hostnames, and that the control node is never a model-selected sink.
// Pacing, user memory and warning capture are the caller's to add.
func (e *Env) Workload(ctl *overlay.Client) workload.Env {
	return workload.Env{
		Host:         e.Slice.Control,
		Control:      ctl,
		Clients:      e.Clients,
		HostOf:       e.Host,
		LabelOf:      e.Label,
		ExcludeSinks: []string{e.Slice.Control.Name()},
	}
}

// RunPeers boots the world and executes fn as the experiment driver
// process: it starts the controller client, then either one client per named
// peer label (nil = every catalog peer) or — on a churning scenario, where
// membership belongs to the schedule alone — the scenario's dynamics, runs
// fn, and returns when the network quiesces. Cells that touch a single peer
// pass just that label so a 100+ peer slice does not pay a full overlay boot
// per data point.
func (e *Env) RunPeers(labels []string, fn func(ctl *overlay.Client, sc map[string]*overlay.Client) error) error {
	want := make(map[string]bool, len(labels))
	for _, l := range labels {
		want[l] = true
	}
	var runErr error
	e.Slice.Net.Run(func() {
		// The controller is Resilient like the peers StartDynamics boots
		// where the control plane fails on schedule; elsewhere a call is one
		// attempt with no deadline, hence no timer and no extra draw, so
		// static and churn-only event streams are untouched.
		ctl := overlay.NewClient(e.Slice.Control, e.Broker.Addr(), overlay.ClientConfig{CPUScore: e.sc.Control.Profile.CPUScore, Resilient: e.sc.Faults != nil})
		if err := ctl.Start(); err != nil {
			runErr = fmt.Errorf("experiments: controller start: %w", err)
			return
		}
		e.Clients = make(map[string]*overlay.Client, len(e.Slice.Catalog))
		if e.sc.Churn != nil {
			if e.Dynamics, runErr = workload.StartDynamics(e.Slice, e.Broker, e.sc, e.seed); runErr != nil {
				return
			}
		} else {
			for _, p := range e.Slice.Catalog {
				if labels != nil && !want[p.Label] {
					continue
				}
				c := overlay.NewClient(e.Slice.Peers[p.Label], e.Broker.Addr(), overlay.ClientConfig{CPUScore: p.Profile.CPUScore})
				if err := c.Start(); err != nil {
					runErr = fmt.Errorf("experiments: start %s: %w", p.Label, err)
					return
				}
				e.Clients[p.Label] = c
			}
		}
		runErr = fn(ctl, e.Clients)
	})
	// Only now has the schedule fully drained (Run returns at quiescence):
	// a rejoin that failed after fn returned is still captured here.
	if runErr == nil && e.Dynamics != nil {
		runErr = e.Dynamics.Err()
	}
	return runErr
}
