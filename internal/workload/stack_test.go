//go:build !race

// The race detector instruments every frame, so stack sizes under -race say
// nothing about the production build: this file is left out of race builds.

package workload

import (
	"fmt"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"strconv"
	"strings"
	"testing"
	"time"

	"peerlab/internal/overlay"
	"peerlab/internal/simnet"
	"peerlab/internal/vtime"
)

// stackChildEnv marks the re-executed test binary that takes the measurement.
const stackChildEnv = "PEERLAB_FLOW_STACK_CHILD"

// TestFlowStackBudget pins what a parked flow costs in goroutine stack. A
// flow is a sender process on the source, parked on pipe acks; the sink's
// receiver is a state machine on the conn's served inbox and parks nothing.
// The sender's frames stay under one 8 KiB stack only while the records on
// the transmission path travel by pointer; one transfer.Metrics returned by
// value through the chain's eight frames grows every sender to 16 KiB. A
// flow costs 8 KiB when the sender fits, 12 KiB with a parked receiver
// beside it and 16 KiB when the sender does not fit, so the budget sits
// between the first two. The pool must also have spawned one coroutine per
// flow and a few more, not two per flow.
//
// The measurement runs in a child process with adaptive initial stacks off
// (GODEBUG=adaptivestackstart=0): every stack then starts at the minimum and
// ends at the power of two its deepest frame needs, whatever the binary ran
// before.
func TestFlowStackBudget(t *testing.T) {
	if os.Getenv(stackChildEnv) == "1" {
		measureFlowStacks(t)
		return
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestFlowStackBudget$", "-test.v")
	cmd.Env = append(os.Environ(), stackChildEnv+"=1",
		"GODEBUG="+strings.TrimPrefix(os.Getenv("GODEBUG")+",adaptivestackstart=0", ","))
	out, err := cmd.CombinedOutput()
	for _, line := range strings.Split(string(out), "\n") {
		if strings.Contains(line, "stack per flow") {
			t.Log(strings.TrimSpace(line))
		}
	}
	if err != nil {
		t.Fatalf("measuring child: %v\n%s", err, out)
	}
}

// measureFlowStacks runs concurrent fixed-sink flows from a control node on
// a private coroutine pool and checks how much StackInuse grew per flow. The
// collector is off, so no stack shrinks, and a pooled coroutine never exits:
// what StackInuse reads after the run is its peak.
//
// Each sink sits 100 µs farther away than the last, as on a heterogeneous
// slice. Frames then arrive one sink at a time, and the short processes that
// serve them run one after another on one coroutine. With identical links
// every sink's serving process would park at the same instant and add a
// third coroutine per flow.
func measureFlowStacks(t *testing.T) {
	const flows, budget = 256, 10 << 10
	if !strings.Contains(os.Getenv("GODEBUG"), "adaptivestackstart=0") {
		t.Fatal("measuring with adaptive stack start on: GODEBUG=" + strconv.Quote(os.Getenv("GODEBUG")))
	}
	net := simnet.New(3)
	pool := vtime.NewPool()
	net.Scheduler().SetPool(pool)
	ctlNode := net.MustAddNode("control", execProfile())
	broker, err := overlay.NewBroker(ctlNode, overlay.BrokerConfig{AdvTTL: 24 * time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	ctl := overlay.NewClient(ctlNode, broker.Addr(), overlay.ClientConfig{})
	clients := make(map[string]*overlay.Client, flows)
	labels := make([]string, flows)
	for i := range labels {
		labels[i] = fmt.Sprintf("p%03d", i)
		prof := execProfile()
		prof.LatencyOneWay += time.Duration(i) * 100 * time.Microsecond
		clients[labels[i]] = overlay.NewClient(net.MustAddNode(labels[i], prof), broker.Addr(), overlay.ClientConfig{})
	}
	env := Env{Host: ctlNode, Control: ctl, Clients: clients, HostOf: identity, LabelOf: identity}

	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	var before, after runtime.MemStats
	var results []Result
	net.Run(func() {
		if err := ctl.Start(); err != nil {
			t.Errorf("control start: %v", err)
		}
		for _, l := range labels {
			if err := clients[l].Start(); err != nil {
				t.Errorf("start %s: %v", l, err)
			}
		}
		runtime.ReadMemStats(&before)
		results, err = Execute(env, ControllerFanout().Flows(labels, 5), 5)
		runtime.ReadMemStats(&after)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != flows {
		t.Fatalf("results = %d, want %d", len(results), flows)
	}
	perFlow := (int64(after.StackInuse) - int64(before.StackInuse)) / flows
	spawned, _ := pool.Stats()
	t.Logf("stack per flow: %d B (budget %d B, %d flows, %d coroutines, GODEBUG=%s)",
		perFlow, budget, flows, spawned, os.Getenv("GODEBUG"))
	if perFlow >= budget {
		t.Fatalf("a flow grew StackInuse by %d B, want < %d B: a parked sender no longer fits one 8 KiB stack, or a receiver parks beside it", perFlow, budget)
	}
	if spawned > flows+8 {
		t.Fatalf("the run spawned %d coroutines for %d flows, want at most %d: a receiver holds one per flow", spawned, flows, flows+8)
	}
}
