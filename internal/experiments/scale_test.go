package experiments

import (
	"reflect"
	"testing"

	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/workload"
)

// TestScaleSmoke pins the scale contract behind the 1024-peer surfaces: a
// kilopeer slice completes its workload with zero failed or hung flows, and
// the report stays bit-identical across worker and shard counts even when
// thousands of virtual processes contend for the scheduler. A hang here
// (a lost wake, a pool worker parked on a dead queue) shows up as the test
// binary's deadline, not a flaky assertion.
//
// Runs only without -short: the swarm leg costs a few seconds of real time.
func TestScaleSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("kilopeer smoke; run without -short (CI's scale job does)")
	}
	cases := []struct {
		name      string
		cfg       Config
		wantFlows int
	}{
		// Controller fanout: every peer serves one flow, so 1024 flows
		// exercise boot, registration and transfer across the whole slice.
		{"uniform-1024", Config{Seed: 710, Reps: 1, Scenario: scenario.Uniform(1024)}, 1024},
		// Swarm: 1024 broker-selected peer↔peer flows over the full
		// 1024-candidate directory — the selection-heavy hot path.
		{"swarm-1024", Config{Seed: 711, Reps: 1, Scenario: scenario.Uniform(1024), Workload: workload.Swarm(1024)}, 1024},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			serial, parallel, sharded := tc.cfg, tc.cfg, tc.cfg
			serial.Workers = 1
			parallel.Workers = 4
			sharded.Workers = 4
			sharded.Shards = 3

			a, err := RunWorkload(serial)
			if err != nil {
				t.Fatal(err)
			}
			if len(a.Flows) != tc.wantFlows {
				t.Fatalf("flows = %d, want %d", len(a.Flows), tc.wantFlows)
			}
			for _, f := range a.Flows {
				if f.Failed || f.Error != "" {
					t.Fatalf("flow failed at scale: %+v", f)
				}
			}
			b, err := RunWorkload(parallel)
			if err != nil {
				t.Fatal(err)
			}
			c, err := RunWorkload(sharded)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(a.Flows, b.Flows) {
				t.Fatal("worker counts diverged at 1024 peers")
			}
			if !reflect.DeepEqual(a.Flows, c.Flows) {
				t.Fatal("shard counts diverged at 1024 peers")
			}
			if !reflect.DeepEqual(a.Summary, c.Summary) {
				t.Fatalf("summaries diverged: %+v vs %+v", a.Summary, c.Summary)
			}
		})
	}
}

// TestScaleSmokeSwarm16384 is the largest CI-checked scale point: 256
// broker-selected flows over a 16384-peer heterogeneous directory on 8
// shards. The boot wave admits ~16k pooled processes at one instant and every
// selection call ranks the full directory, so this is where a dispatcher or
// timer-heap regression shows first. One serial run and one
// parallel+resharded run instead of TestScaleSmoke's three-way matrix: at
// this size the pair already covers both invariance axes, and CI's
// -timeout flag is the hang detector.
//
// Runs only without -short: ~20s of real time at 16k peers.
func TestScaleSmokeSwarm16384(t *testing.T) {
	if testing.Short() {
		t.Skip("16k-peer smoke; run without -short (CI's scale job does)")
	}
	cfg := Config{
		Seed:     712,
		Reps:     1,
		Scenario: scenario.Heterogeneous(16384),
		Workload: workload.Swarm(256),
		Shards:   8,
		Workers:  1,
		// Big enough that every shard holds its whole slice of the 16384
		// catalog at either shard count — eviction would make survival
		// depend on the shard hash and break the invariance assertion.
		CacheLimit: 8192,
	}
	a, err := RunWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Flows) != 256 {
		t.Fatalf("flows = %d, want 256", len(a.Flows))
	}
	for _, f := range a.Flows {
		if f.Failed || f.Error != "" {
			t.Fatalf("flow failed at scale: %+v", f)
		}
	}
	cfg.Workers, cfg.Shards = 4, 3
	b, err := RunWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) {
		t.Fatal("worker/shard counts diverged at 16384 peers")
	}
}

// TestScaleSmokeDisseminate1024 carries the piece engine's worker/shard
// invariance from the 64 peers the CLI smoke checks to a kilopeer swarm:
// disseminate:1024 over zipf:1024 must come back whole — no failed flow, no
// stalled flow, sinks re-originating as sources — and bit-identical at
// workers 1 vs 4 and shards 1 vs 3. A thousand holders publish and a
// thousand downloaders plan every round, so a round that reads its state in
// an order the world can perturb shows here first.
//
// Runs only without -short: three runs of a few seconds each.
func TestScaleSmokeDisseminate1024(t *testing.T) {
	if testing.Short() {
		t.Skip("kilopeer dissemination smoke; run without -short (CI's scale job does)")
	}
	cfg := Config{Seed: 716, Reps: 1, Workers: 1, Shards: 1, Scenario: scenario.Zipf(1024), Workload: workload.DisseminateWith(1024, workload.Dissemination{})}
	a, err := RunWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if s := a.Summary; len(a.Flows) != 1024 || s.FailedFlows != 0 || s.StalledFlows != 0 || s.PeersReOriginated == 0 {
		t.Fatalf("flows = %d, summary %+v: want 1024 whole flows, none stalled, some re-originating", len(a.Flows), s)
	}
	for _, f := range a.Flows {
		if f.Failed || f.Error != "" {
			t.Fatalf("flow failed at scale: %+v", f)
		}
	}
	for _, alt := range [][2]int{{4, 1}, {4, 3}} {
		cfg.Workers, cfg.Shards = alt[0], alt[1]
		b, err := RunWorkload(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a.Flows, b.Flows) || !reflect.DeepEqual(a.Summary, b.Summary) {
			t.Fatalf("workers=%d shards=%d diverged from workers=1 shards=1 at 1024 peers", alt[0], alt[1])
		}
	}
}

// TestBatchBootCutsControlRPCs pins the boot's control-plane cost through
// RunPeers: exactly one control RPC per booted peer — the register frame
// carries the initial stats report, so nothing follows it. The controller's
// own register is excluded from the per-peer rate.
func TestBatchBootCutsControlRPCs(t *testing.T) {
	const peers = 256
	env, err := NewEnv(Config{Seed: 714, Reps: 1, Scenario: scenario.Uniform(peers)})
	if err != nil {
		t.Fatal(err)
	}
	err = env.RunPeers(nil, func(ctl *overlay.Client, sc map[string]*overlay.Client) error {
		if len(sc) != peers {
			t.Errorf("booted %d peers, want %d", len(sc), peers)
		}
		// Every peer is rankable as booted: its statistics were seeded by
		// the register frame itself.
		for _, snap := range env.Broker.Registry().Snapshots() {
			if snap.ReadyAt.IsZero() {
				t.Errorf("%s booted without seeded statistics", snap.Peer)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if perPeer := float64(env.Broker.ControlRPCs()-1) / peers; perPeer != 1.0 {
		t.Fatalf("boot = %.2f control RPCs/peer, want 1.0", perPeer)
	}
}

// TestDirectoryHoldsWholeCatalogAcrossShards is the regression test for the
// truncated directory on the experiments surface: a catalog past the
// broker's default cache limit, run with no explicit CacheLimit, must rank
// the same candidates at any shard count. Before NewEnvFor sized the
// directory from the catalog, 1024 of 1501 registrants survived per shard
// and the survivors — hence the selected sinks — depended on the shard hash.
func TestDirectoryHoldsWholeCatalogAcrossShards(t *testing.T) {
	cfg := Config{Seed: 715, Reps: 1, Workers: 1, Scenario: scenario.Uniform(1500), Workload: workload.Swarm(8)}
	one, err := RunWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Shards = 3
	three, err := RunWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(one.Flows) != 8 {
		t.Fatalf("flows = %d, want 8", len(one.Flows))
	}
	if !reflect.DeepEqual(one.Flows, three.Flows) {
		t.Fatalf("flows differ between 1 and 3 shards on a 1500-peer catalog:\n1: %+v\n3: %+v", one.Flows, three.Flows)
	}
}
