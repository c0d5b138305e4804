package experiments

import (
	"fmt"
	"runtime"
	"time"

	"peerlab/internal/overlay"
	"peerlab/internal/planetlab"
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
	// IdleGap is the virtual-time gap between repetitions, long enough for
	// peers to fall idle again (wake lag re-applies). Default 10 minutes.
	IdleGap time.Duration
	// Workers bounds how many experiment cells run concurrently, each on its
	// own freshly deployed slice. 0 means GOMAXPROCS. Cell seeds derive from
	// (Seed, figure, cell index), so results are bit-identical for a given
	// Seed at any worker count, including 1.
	Workers int
	// Scenario describes the slice under test. The zero value deploys the
	// paper's calibrated Table-1 world (planetlab.Scenario()). Synthetic
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
	// Logf receives operator-visible warnings from inside cells (relaunch
	// budget exhaustion, see workload.SendRelaunched). nil falls back to the
	// process default logger. Sweep runs install a per-cell collector here
	// so warnings from concurrent cells land in the cell's own record
	// instead of interleaving on stderr.
	Logf func(format string, args ...any)

	// pool, when set, is shared across figures so a whole-suite run is
	// bounded by one worker budget (see FigureSuite).
	pool *workerPool
	// fig50, when set, shares the 50 Mb transfer cells between Figures 3
	// and 4 within one suite run (see fig50mbResults).
	fig50 *fig50Cache
	// scenarioLeases, when set, applies the scenario's AdvTTL/LeaseSweep
	// hints to the deployed broker. Only churn workload cells set it —
	// they run the renewal heartbeat that keeps live peers leased; figure
	// cells always deploy with the static TTL (figures ignore churn
	// schedules).
	scenarioLeases bool
}

func (c Config) withDefaults() Config {
	if c.Seed == 0 {
		c.Seed = 2007
	}
	if c.Reps <= 0 {
		c.Reps = 5
	}
	if c.IdleGap <= 0 {
		c.IdleGap = 10 * time.Minute
	}
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.Scenario.IsZero() {
		c.Scenario = planetlab.Scenario()
	}
	if c.Shards <= 0 {
		c.Shards = 1
	}
	return c
}

// labels returns the measured-peer labels — the X axis of the per-peer
// figures for the configured scenario.
func (c Config) labels() []string { return c.Scenario.Labels }

// SCLabels is the fixed X axis of the per-peer figures on the default
// table1 scenario.
var SCLabels = []string{"SC1", "SC2", "SC3", "SC4", "SC5", "SC6", "SC7", "SC8"}

// Env is one deployed experiment environment.
type Env struct {
	Slice  *scenario.Slice
	Broker *overlay.Broker
	// Clients maps peer label to the running client for every peer the
	// current RunPeers call started (set for the duration of fn).
	Clients map[string]*overlay.Client
	hostOf  map[string]string // peer label -> hostname
	labelOf map[string]string // hostname -> peer label
	// policy is the CallPolicy RunPeers gives the controller client: the
	// resilient default on fault scenarios (controller-sourced flows must
	// retry and degrade like peer-sourced ones), zero everywhere else so
	// static and churn-only event streams are untouched.
	policy overlay.CallPolicy
}

// NewEnv deploys the configured scenario and builds (but does not yet
// start) the overlay. Start must run inside the network's scheduler (see
// Run).
func NewEnv(cfg Config) (*Env, error) { return NewEnvFor(cfg, nil) }

// NewEnvFor is NewEnv for a cell that interacts only with the named peer
// labels: the deployment materializes just those peers
// (scenario.DeployPeers), so a per-peer cell on a 100k-peer directory pays
// for two nodes, not 100k. nil — or empty, the churn conductor's "membership
// is mine alone" marker, whose joins may name any catalog peer — deploys
// the full catalog. The scenario's Remembered peers ride along in every
// subset: their hostnames appear in quick-peer selection requests
// (Env.Preferred), so dropping them would change request bytes, and with
// them virtual timing, relative to a full deployment.
func NewEnvFor(cfg Config, peers []string) (*Env, error) {
	deploy := peers
	if len(peers) == 0 {
		deploy = nil
	} else if len(cfg.Scenario.Remembered) > 0 {
		deploy = append(append(make([]string, 0, len(peers)+len(cfg.Scenario.Remembered)), peers...),
			cfg.Scenario.Remembered...)
	}
	s, err := scenario.DeployPeers(cfg.Scenario, cfg.Seed, deploy)
	if err != nil {
		return nil, err
	}
	// Leases must outlive the whole run by default — experiments span many
	// virtual hours of idle gaps and figure cells never renew. Only the
	// churn workload cells opt into the scenario's short TTL and eager
	// sweep (cfg.scenarioLeases): they run the renewal heartbeat that
	// keeps live peers leased. Figure experiments on a churning scenario
	// measure its catalog with static membership — a short TTL there would
	// just expire every candidate across the idle gaps.
	bcfg := overlay.BrokerConfig{AdvTTL: scenario.DefaultAdvTTL, Shards: cfg.Shards,
		CacheLimit: cfg.CacheLimit}
	if bcfg.CacheLimit == 0 {
		// Every deployed peer plus the controller registers; the directory
		// must hold them all or selection ranks whatever survived eviction.
		bcfg.CacheLimit = max(overlay.DefaultCacheLimit, len(s.Catalog)+1)
	}
	if cfg.scenarioLeases {
		bcfg.AdvTTL = cfg.Scenario.EffectiveAdvTTL()
		bcfg.LeaseSweep = cfg.Scenario.LeaseSweep
	}
	broker, err := overlay.NewBroker(s.Control, bcfg)
	if err != nil {
		return nil, err
	}
	env := &Env{
		Slice:   s,
		Broker:  broker,
		hostOf:  make(map[string]string, len(s.Catalog)),
		labelOf: make(map[string]string, len(s.Catalog)),
	}
	if cfg.scenarioLeases && cfg.Scenario.Faults != nil {
		env.policy = overlay.DefaultCallPolicy()
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

// RunPeers executes fn as the experiment driver process: it starts the
// controller client and one client per named peer label (nil = every
// catalog peer), runs fn, and returns when the network quiesces. Cells that
// touch a single peer pass just that label so a 100+ peer slice does not
// pay a full overlay boot per data point.
func (e *Env) RunPeers(labels []string, fn func(ctl *overlay.Client, sc map[string]*overlay.Client) error) error {
	want := make(map[string]bool, len(labels))
	for _, l := range labels {
		want[l] = true
	}
	var runErr error
	e.Slice.Net.Run(func() {
		ctl := overlay.NewClient(e.Slice.Control, e.Broker.Addr(), overlay.ClientConfig{CPUScore: 2, Call: e.policy})
		if err := ctl.Start(); err != nil {
			runErr = fmt.Errorf("experiments: controller start: %w", err)
			return
		}
		clients := make(map[string]*overlay.Client, len(e.Slice.Catalog))
		for _, p := range e.Slice.Catalog {
			if labels != nil && !want[p.Label] {
				continue
			}
			c := overlay.NewClient(e.Slice.Peers[p.Label], e.Broker.Addr(), overlay.ClientConfig{
				CPUScore: p.Profile.CPUScore,
			})
			if err := c.Start(); err != nil {
				runErr = fmt.Errorf("experiments: start %s: %w", p.Label, err)
				return
			}
			clients[p.Label] = c
		}
		e.Clients = clients
		runErr = fn(ctl, clients)
	})
	return runErr
}
