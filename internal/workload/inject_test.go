package workload

import (
	"testing"
	"time"

	"peerlab/internal/overlay"
	"peerlab/internal/scenario"
	"peerlab/internal/simnet"
	"peerlab/internal/transport"
)

// TestInjectorExecutesPlanOnSchedule runs a hand-authored plan against a
// live simnet and a real broker: during the blackout a control RPC fails,
// after the restart the broker's directory is empty until the peer
// re-registers, and a partition severs site↔control traffic for exactly
// its window.
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
	broker, err := overlay.NewBroker(control, overlay.BrokerConfig{})
	if err != nil {
		t.Fatal(err)
	}

	slice := &scenario.Slice{Net: n, Control: control,
		Catalog: []scenario.Peer{{Label: "p000", Hostname: "peer-0", Site: "site-0"}}}
	plan := []scenario.FaultEvent{
		{At: 2 * time.Second, Dur: 3 * time.Second, Kind: scenario.FaultBrokerBlackout},
		{At: 10 * time.Second, Dur: 5 * time.Second, Kind: scenario.FaultSitePartition, Site: "site-0"},
	}

	received := 0
	n.Scheduler().Go(func() {
		for {
			if _, err := ctlEp.Recv(); err != nil {
				return
			}
			received++
		}
	})
	var downErr, upErr error
	var beforeBlackout, afterRestart, afterReport []string
	n.Run(func() {
		base := control.Now()
		inject(slice, broker, plan)
		at := func(off time.Duration) {
			if d := off - control.Now().Sub(base); d > 0 {
				control.Sleep(d)
			}
		}
		send := func(off time.Duration) {
			at(off)
			siteEp.Send(transport.Addr("control/svc"), []byte{1})
		}
		client, err := overlay.BootPeer(sited, broker.Addr(), overlay.ClientConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		defer client.Stop()
		beforeBlackout = broker.Peers()
		at(3 * time.Second) // mid-blackout: the broker drops the RPC
		downErr = client.ReportStats()
		at(6 * time.Second) // restarted with a cold cache
		afterRestart = broker.Peers()
		upErr = client.ReportStats()
		afterReport = broker.Peers()
		send(8 * time.Second)  // before the partition: delivered
		send(12 * time.Second) // mid-partition: dropped
		send(16 * time.Second) // healed: delivered
		control.Sleep(5 * time.Second)
	})
	if received != 2 {
		t.Fatalf("control received %d messages, want 2 (one lost to the partition)", received)
	}
	if len(beforeBlackout) != 1 || downErr == nil {
		t.Fatalf("before the blackout the directory held %v; the mid-blackout report returned %v, want an error",
			beforeBlackout, downErr)
	}
	if len(afterRestart) != 0 {
		t.Fatalf("the restarted broker lists %v, want an empty directory", afterRestart)
	}
	if upErr != nil || len(afterReport) != 1 || afterReport[0] != "peer-0" {
		t.Fatalf("re-registering report: err %v, directory %v; want nil and [peer-0]", upErr, afterReport)
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
	slice := &scenario.Slice{Net: n, Control: control}
	plan := []scenario.FaultEvent{
		{At: time.Second, Dur: 3 * time.Second, Kind: scenario.FaultLossBurst, Loss: 0.5},
		{At: 2 * time.Second, Dur: 4 * time.Second, Kind: scenario.FaultLossBurst, Loss: 0.5},
	}

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
		inject(slice, nil, plan) // no blackout, so no broker
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
