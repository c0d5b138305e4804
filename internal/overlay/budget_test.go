package overlay

import (
	"errors"
	"fmt"
	"maps"
	"runtime"
	"slices"
	"sync"
	"testing"

	"peerlab/internal/simnet"
	"peerlab/internal/task"
)

// liveHeap reports the live heap bytes and objects after a collection. Two
// collections empty every sync.Pool first.
func liveHeap() (bytes, objects uint64) {
	var ms runtime.MemStats
	runtime.GC()
	runtime.GC()
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc, ms.HeapObjects
}

// TestPeerBudget pins what a registered, idle peer costs, broker and client
// side together: the simulated node, both muxes and their endpoints, the
// receiver, the broker's advertisement, statistics and candidate entries,
// and the one idle conn each side keeps from the registration RPC. An idle
// peer holds nothing it has not used: no executor before its first task,
// no message window before its first message, no tombstone map on a mux
// that never tore an accepted conn down. Heartbeats then leave the broker
// no more than a conn-id span per peer: tombstones grow with peers, not
// with RPCs. Skipped under -race, whose shadow allocations are counted.
func TestPeerBudget(t *testing.T) {
	if underRace() {
		t.Skip("the race detector allocates beside every object")
	}
	const peers, beating, rounds = 1024, 64, 64
	profiles := make(map[string]simnet.Profile, peers)
	for i := 0; i < peers; i++ {
		profiles[fmt.Sprintf("p%04d", i)] = clientProfile()
	}
	names := slices.Sorted(maps.Keys(profiles))

	bytes0, objects0 := liveHeap()
	d := deploy(t, profiles)
	d.net.Run(func() {
		for _, name := range names {
			if err := d.clients[name].Start(); err != nil {
				t.Errorf("start %s: %v", name, err)
				return
			}
		}
	})
	bytes1, objects1 := liveHeap()
	perPeer := float64(bytes1-bytes0) / peers
	objects := float64(objects1-objects0) / peers
	t.Logf("a registered idle peer: %.0f B live, %.1f live objects", perPeer, objects)
	if perPeer > 3850 {
		t.Errorf("a registered idle peer holds %.0f B live, budget 3 850", perPeer)
	}
	if objects > 38 {
		t.Errorf("a registered idle peer holds %.1f live objects, budget 38", objects)
	}

	d.net.Run(func() {
		for r := 0; r < rounds; r++ {
			for _, name := range names[:beating] {
				if err := d.clients[name].ReportStats(); err != nil {
					t.Errorf("heartbeat %s: %v", name, err)
					return
				}
			}
		}
	})
	bytes2, _ := liveHeap()
	perBeat := (float64(bytes2) - float64(bytes1)) / (beating * rounds)
	t.Logf("a heartbeat leaves %.1f B live", perBeat)
	if perBeat >= 8 {
		t.Errorf("a heartbeat leaves %.1f B live, budget under 8", perBeat)
	}
	runtime.KeepAlive(d)
}

// TestExecutorBuiltOnFirstTask: concurrent first submissions (realnet serves
// conns concurrently) share one executor, and a client stopped before its
// first task still refuses one.
func TestExecutorBuiltOnFirstTask(t *testing.T) {
	n := simnet.New(1)
	c := NewClient(n.MustAddNode("p1", clientProfile()), "broker0/client", ClientConfig{})
	if load := c.currentStats(); load.QueueLen != 0 || load.ReadyIn != 0 {
		t.Fatalf("load before any task = %+v, want none", load)
	}
	got := make([]*task.Executor, 8)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.executor()
		}()
	}
	wg.Wait()
	for i, e := range got {
		if e == nil || e != got[0] {
			t.Fatalf("submission %d got executor %p, the first %p", i, e, got[0])
		}
	}
	stopped := NewClient(n.MustAddNode("p2", clientProfile()), "broker0/client", ClientConfig{})
	stopped.Stop()
	if err := stopped.executor().Submit(task.Task{WorkUnits: 1}, nil); !errors.Is(err, task.ErrStopped) {
		t.Fatalf("a task after Stop: %v, want %v", err, task.ErrStopped)
	}
}
