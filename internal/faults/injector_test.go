package faults_test

import (
	"testing"
	"time"

	"peerlab/internal/faults"
	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
)

// recordingBroker captures the injector's broker calls with their virtual
// timestamps.
type recordingBroker struct {
	now  func() time.Time
	log  []string
	base time.Time
}

func (b *recordingBroker) stamp(what string) {
	b.log = append(b.log, what+"@"+b.now().Sub(b.base).String())
}
func (b *recordingBroker) SetDown(down bool) {
	if down {
		b.stamp("down")
	} else {
		b.stamp("up")
	}
}
func (b *recordingBroker) Restart() { b.stamp("restart") }

// TestInjectorExecutesPlanOnSchedule runs a hand-authored plan against a
// live simnet: the broker flips down and restarts at the planned instants,
// a partition severs site↔control traffic for exactly its window, and a
// loss burst raises (then clears) the control node's extra loss.
func TestInjectorExecutesPlanOnSchedule(t *testing.T) {
	n := simnet.New(7)
	control := n.MustAddNode("control", simnet.DefaultProfile())
	sited := n.MustAddNode("peer-0", simnet.DefaultProfile())
	ctlEp, err := control.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	siteEp, err := sited.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}

	plan := faults.NewPlan([]scenario.FaultEvent{
		blackout(2*time.Second, 3*time.Second),
		{At: 10 * time.Second, Dur: 5 * time.Second, Kind: scenario.FaultSitePartition, Site: "site-0"},
	})
	broker := &recordingBroker{now: control.Now}
	inj := faults.NewInjector(control, n, broker, "control",
		map[string][]string{"site-0": {"peer-0"}}, plan)

	received := 0
	n.Scheduler().Go(func() {
		for {
			if _, err := ctlEp.Recv(); err != nil {
				return
			}
			received++
		}
	})
	n.Run(func() {
		broker.base = control.Now()
		inj.Start()
		send := func(at time.Duration) {
			if d := at - control.Now().Sub(broker.base); d > 0 {
				control.Sleep(d)
			}
			siteEp.Send(transport.Addr("control/svc"), []byte{1})
		}
		send(8 * time.Second)  // before the partition: delivered
		send(12 * time.Second) // mid-partition: dropped
		send(16 * time.Second) // healed: delivered
		control.Sleep(5 * time.Second)
	})
	if received != 2 {
		t.Fatalf("control received %d messages, want 2 (one lost to the partition)", received)
	}
	want := []string{"down@2s", "restart@5s"}
	if len(broker.log) != len(want) || broker.log[0] != want[0] || broker.log[1] != want[1] {
		t.Fatalf("broker calls = %v, want %v", broker.log, want)
	}
}

// TestInjectorOverlappingLossBursts pins the accumulator: concurrent bursts
// sum their rates and the extra loss clears completely when the last one
// ends.
func TestInjectorOverlappingLossBursts(t *testing.T) {
	n := simnet.New(9)
	control := n.MustAddNode("control", simnet.DefaultProfile())
	remote := n.MustAddNode("remote", simnet.DefaultProfile())
	ctlEp, err := control.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	remEp, err := remote.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}

	// Two bursts of 0.5 overlap on [2s, 4s]: summed loss 1 drops all
	// control-bound traffic; after 6s everything flows again.
	plan := faults.NewPlan([]scenario.FaultEvent{
		{At: time.Second, Dur: 3 * time.Second, Kind: scenario.FaultLossBurst, Loss: 0.5},
		{At: 2 * time.Second, Dur: 4 * time.Second, Kind: scenario.FaultLossBurst, Loss: 0.5},
	})
	inj := faults.NewInjector(control, n, nil, "control", nil, plan)

	received := 0
	n.Scheduler().Go(func() {
		for {
			if _, err := ctlEp.Recv(); err != nil {
				return
			}
			received++
		}
	})
	var base time.Time
	n.Run(func() {
		base = control.Now()
		inj.Start()
		send := func(at time.Duration) {
			if d := at - control.Now().Sub(base); d > 0 {
				control.Sleep(d)
			}
			remEp.Send(transport.Addr("control/svc"), []byte{1})
		}
		for i := 0; i < 20; i++ {
			send(2*time.Second + 500*time.Millisecond + time.Duration(i)*50*time.Millisecond)
		}
		for i := 0; i < 20; i++ {
			send(7*time.Second + time.Duration(i)*50*time.Millisecond)
		}
		control.Sleep(3 * time.Second)
	})
	// The saturated window drops all 20; the cleared window delivers all 20.
	if received != 20 {
		t.Fatalf("received %d, want exactly the 20 post-burst messages", received)
	}
}
