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

// TestScaleSmokeBatchedBoot pins the determinism contract of the batched
// boot wave (Config.BatchBoot): a kilopeer run booted through
// overlay.BootPeers completes with zero failures and stays bit-identical
// across worker and shard counts. Batched runs are NOT compared against
// legacy runs — the wave's virtual-time event stream legitimately differs
// from the serial two-RPC boot — only against themselves.
//
// Runs only without -short: a kilopeer slice costs a few seconds.
func TestScaleSmokeBatchedBoot(t *testing.T) {
	if testing.Short() {
		t.Skip("kilopeer smoke; run without -short (CI's scale job does)")
	}
	cfg := Config{
		Seed:      713,
		Reps:      1,
		Scenario:  scenario.Uniform(1024),
		BatchBoot: true,
		Workers:   1,
	}
	a, err := RunWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Flows) != 1024 {
		t.Fatalf("flows = %d, want 1024", len(a.Flows))
	}
	for _, f := range a.Flows {
		if f.Failed || f.Error != "" {
			t.Fatalf("flow failed under batched boot: %+v", f)
		}
	}
	cfg.Workers, cfg.Shards = 4, 3
	b, err := RunWorkload(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a.Flows, b.Flows) {
		t.Fatal("worker/shard counts diverged under batched boot")
	}
	if !reflect.DeepEqual(a.Summary, b.Summary) {
		t.Fatalf("summaries diverged under batched boot: %+v vs %+v", a.Summary, b.Summary)
	}
}

// TestBatchBootCutsControlRPCs is the boot-wave efficiency contract: the
// legacy serial boot spends exactly two control RPCs per peer (register +
// initial stats report) while the batched wave spends exactly one, a ≥2×
// cut in control-plane traffic per booted peer. The controller always boots
// legacy (one register, no report), so it is excluded from the per-peer
// rate on both sides.
func TestBatchBootCutsControlRPCs(t *testing.T) {
	const peers = 256
	bootRPCs := func(batch bool) int64 {
		env, err := NewEnv(Config{
			Seed:      714,
			Reps:      1,
			Scenario:  scenario.Uniform(peers),
			BatchBoot: batch,
		})
		if err != nil {
			t.Fatal(err)
		}
		err = env.RunPeers(nil, func(ctl *overlay.Client, sc map[string]*overlay.Client) error {
			if len(sc) != peers {
				t.Errorf("booted %d peers, want %d", len(sc), peers)
			}
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		return env.Broker.ControlRPCs() - 1 // minus the controller's register
	}
	legacy := bootRPCs(false)
	batched := bootRPCs(true)
	if perPeer := float64(legacy) / peers; perPeer != 2.0 {
		t.Fatalf("legacy boot = %.2f control RPCs/peer, want 2.0", perPeer)
	}
	if perPeer := float64(batched) / peers; perPeer != 1.0 {
		t.Fatalf("batched boot = %.2f control RPCs/peer, want 1.0", perPeer)
	}
	if legacy < 2*batched {
		t.Fatalf("batching cut control RPCs %d -> %d, want >=2x", legacy, batched)
	}
}
