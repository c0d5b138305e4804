package simnet

import (
	"errors"
	"testing"
	"time"

	"peerlab/internal/transport"
	"peerlab/internal/vtime"
)

func twoNodeNet(t *testing.T, pa, pb Profile) (*Network, transport.Endpoint, transport.Endpoint) {
	t.Helper()
	n := New(1)
	a := n.MustAddNode("a", pa)
	b := n.MustAddNode("b", pb)
	epA, err := a.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	epB, err := b.Endpoint("svc")
	if err != nil {
		t.Fatal(err)
	}
	return n, epA, epB
}

func TestBasicDelivery(t *testing.T) {
	n, epA, epB := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	var got transport.Message
	n.Scheduler().Go(func() {
		m, err := epB.Recv()
		if err != nil {
			t.Errorf("Recv: %v", err)
			return
		}
		got = m
	})
	n.Run(func() {
		if err := epA.SendFrame(epB.Addr(), []byte("ping"), []byte("body"), 0); err != nil {
			t.Errorf("SendFrame: %v", err)
		}
	})
	if string(got.Payload) != "ping" || string(got.Body) != "body" || got.Size != 8 {
		t.Fatalf("head %q, body %q, size %d; want ping, body, 8", got.Payload, got.Body, got.Size)
	}
	if got.From != "a/svc" {
		t.Fatalf("from = %s", got.From)
	}
}

func TestLatencyIsSumOfAccessLinks(t *testing.T) {
	pa := DefaultProfile()
	pa.LatencyOneWay = 30 * time.Millisecond
	pb := DefaultProfile()
	pb.LatencyOneWay = 20 * time.Millisecond
	n, epA, epB := twoNodeNet(t, pa, pb)
	var arrived time.Duration
	n.Scheduler().Go(func() {
		if _, err := epB.Recv(); err == nil {
			arrived = n.Scheduler().Elapsed()
		}
	})
	n.Run(func() {
		epA.Send(epB.Addr(), []byte{1}) // 1 byte: tx time negligible
	})
	want := 50 * time.Millisecond
	if diff := arrived - want; diff < 0 || diff > time.Millisecond {
		t.Fatalf("arrival at %v, want ~%v", arrived, want)
	}
}

func TestTransmissionTimeFollowsBandwidth(t *testing.T) {
	pa := DefaultProfile()
	pa.Bandwidth = 1e6 // 1 MB/s
	pa.LatencyOneWay = 0
	pb := pa
	n, epA, epB := twoNodeNet(t, pa, pb)
	var arrived time.Duration
	n.Scheduler().Go(func() {
		if _, err := epB.Recv(); err == nil {
			arrived = n.Scheduler().Elapsed()
		}
	})
	n.Run(func() {
		epA.SendFrame(epB.Addr(), []byte("hdr"), nil, 5_000_000) // 5 MB at 1 MB/s
	})
	if want := 5 * time.Second; arrived != want {
		t.Fatalf("5MB at 1MB/s arrived at %v, want %v", arrived, want)
	}
}

func TestPathBandwidthIsBottleneck(t *testing.T) {
	fast := DefaultProfile()
	fast.Bandwidth = 100e6
	fast.LatencyOneWay = 0
	slow := DefaultProfile()
	slow.Bandwidth = 1e6
	slow.LatencyOneWay = 0
	n, epA, epB := twoNodeNet(t, fast, slow)
	var arrived time.Duration
	n.Scheduler().Go(func() {
		if _, err := epB.Recv(); err == nil {
			arrived = n.Scheduler().Elapsed()
		}
	})
	n.Run(func() {
		epA.SendFrame(epB.Addr(), nil, nil, 2_000_000)
	})
	if want := 2 * time.Second; arrived != want {
		t.Fatalf("arrived at %v, want %v (bottleneck 1MB/s)", arrived, want)
	}
}

func TestSenderBlocksForSerialization(t *testing.T) {
	pa := DefaultProfile()
	pa.Bandwidth = 1e6
	pa.LatencyOneWay = 0
	n, epA, epB := twoNodeNet(t, pa, pa)
	var sendDone time.Duration
	n.Scheduler().Go(func() { epB.Recv() })
	n.Run(func() {
		epA.SendFrame(epB.Addr(), nil, nil, 3_000_000)
		sendDone = n.Scheduler().Elapsed()
	})
	if want := 3 * time.Second; sendDone != want {
		t.Fatalf("Send returned at %v, want %v", sendDone, want)
	}
}

func TestBackToBackSendsQueueOnUplink(t *testing.T) {
	pa := DefaultProfile()
	pa.Bandwidth = 1e6
	pa.LatencyOneWay = 0
	n, epA, epB := twoNodeNet(t, pa, pa)
	var arrivals []time.Duration
	n.Scheduler().Go(func() {
		for i := 0; i < 2; i++ {
			if _, err := epB.Recv(); err != nil {
				return
			}
			arrivals = append(arrivals, n.Scheduler().Elapsed())
		}
	})
	n.Run(func() {
		epA.SendFrame(epB.Addr(), nil, nil, 1_000_000)
		epA.SendFrame(epB.Addr(), nil, nil, 1_000_000)
	})
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	if arrivals[0] != time.Second || arrivals[1] != 2*time.Second {
		t.Fatalf("arrivals = %v, want [1s 2s]", arrivals)
	}
}

func TestSizeDegradationSlowsLargeMessages(t *testing.T) {
	p := DefaultProfile()
	p.Bandwidth = 1e6
	p.LatencyOneWay = 0
	p.DegradeRefBytes = 1_000_000
	p.DegradeExp = 1.0
	n, epA, epB := twoNodeNet(t, p, p)
	var arrivals []time.Duration
	n.Scheduler().Go(func() {
		for i := 0; i < 2; i++ {
			if _, err := epB.Recv(); err != nil {
				return
			}
			arrivals = append(arrivals, n.Scheduler().Elapsed())
		}
	})
	n.Run(func() {
		// 1MB with degrade factor 1+(1)^1 = 2 -> 2s
		epA.SendFrame(epB.Addr(), nil, nil, 1_000_000)
		// 4MB with degrade factor 1+4 = 5 -> 20s
		epA.SendFrame(epB.Addr(), nil, nil, 4_000_000)
	})
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	if arrivals[0] != 2*time.Second {
		t.Fatalf("small message arrived at %v, want 2s", arrivals[0])
	}
	if arrivals[1] != 22*time.Second {
		t.Fatalf("large message arrived at %v, want 22s (superlinear)", arrivals[1])
	}
}

func TestWakeLagAppliesWhenIdleOnly(t *testing.T) {
	pa := DefaultProfile()
	pa.LatencyOneWay = 0
	pb := DefaultProfile()
	pb.LatencyOneWay = 0
	pb.WakeLag = 10 * time.Second
	pb.WakeLagSpread = 0 // deterministic
	pb.EngagedWindow = 30 * time.Second
	n, epA, epB := twoNodeNet(t, pa, pb)
	var arrivals []time.Duration
	n.Scheduler().Go(func() {
		for i := 0; i < 2; i++ {
			if _, err := epB.Recv(); err != nil {
				return
			}
			arrivals = append(arrivals, n.Scheduler().Elapsed())
		}
	})
	n.Run(func() {
		epA.Send(epB.Addr(), []byte{1}) // idle receiver: +10s wake lag
		epA.Send(epB.Addr(), []byte{2}) // engaged now: no lag
	})
	if len(arrivals) != 2 {
		t.Fatalf("got %d arrivals, want 2", len(arrivals))
	}
	if arrivals[0] < 10*time.Second {
		t.Fatalf("first arrival at %v, want >= 10s wake lag", arrivals[0])
	}
	if gap := arrivals[1] - arrivals[0]; gap > time.Second {
		t.Fatalf("second arrival lagged %v after first; engaged node must not re-pay wake lag", gap)
	}
}

func TestLossRateDropsSomeMessages(t *testing.T) {
	pa := DefaultProfile()
	pb := DefaultProfile()
	pb.LossRate = 0.5
	n, epA, epB := twoNodeNet(t, pa, pb)
	const total = 200
	received := 0
	n.Scheduler().Go(func() {
		for {
			if _, err := epB.Recv(); err != nil {
				return
			}
			received++
		}
	})
	n.Run(func() {
		for i := 0; i < total; i++ {
			epA.Send(epB.Addr(), []byte{byte(i)})
		}
	})
	if received == 0 || received == total {
		t.Fatalf("received %d of %d; want strictly between (loss ~50%%)", received, total)
	}
	if received < total/4 || received > 3*total/4 {
		t.Fatalf("received %d of %d; outside plausible band for 50%% loss", received, total)
	}
	_, delivered, dropped := n.Stats()
	if delivered != int64(received) {
		t.Fatalf("Stats delivered = %d, want %d", delivered, received)
	}
	if dropped != int64(total-received) {
		t.Fatalf("Stats dropped = %d, want %d", dropped, total-received)
	}
}

func TestMTBFLossGrowsWithMessageSize(t *testing.T) {
	mk := func(size int) (received int) {
		pa := DefaultProfile()
		pa.Bandwidth = 1e6
		pb := pa
		pb.MTBF = 10 * time.Second
		n, epA, epB := twoNodeNet(t, pa, pb)
		const total = 60
		n.Scheduler().Go(func() {
			for {
				if _, err := epB.Recv(); err != nil {
					return
				}
				received++
			}
		})
		n.Run(func() {
			for i := 0; i < total; i++ {
				epA.SendFrame(epB.Addr(), nil, nil, size)
			}
		})
		return received
	}
	small := mk(100_000)    // 0.1s tx -> ~1% loss
	large := mk(20_000_000) // 20s tx -> ~86% loss
	if small <= large {
		t.Fatalf("small msgs received %d, large %d; MTBF loss must grow with size", small, large)
	}
	if large > 30 {
		t.Fatalf("large messages received %d of 60; expected heavy loss", large)
	}
}

func TestPartitionAndHeal(t *testing.T) {
	n, epA, epB := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	received := 0
	n.Scheduler().Go(func() {
		for {
			if _, err := epB.Recv(); err != nil {
				return
			}
			received++
		}
	})
	n.Run(func() {
		n.Partition("a", "b", true)
		epA.Send(epB.Addr(), []byte{1})
		n.Partition("a", "b", true) // an idempotent re-cut must not heal
		epA.Send(epB.Addr(), []byte{2})
		n.Partition("a", "b", false)
		epA.Send(epB.Addr(), []byte{3})
	})
	if received != 1 {
		t.Fatalf("received %d, want 1 (two dropped during partition)", received)
	}
}

func TestSendToUnknownNode(t *testing.T) {
	n, epA, _ := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	var err error
	n.Run(func() {
		err = epA.Send("nosuch/svc", []byte{1})
	})
	if !errors.Is(err, transport.ErrUnknownAddr) {
		t.Fatalf("err = %v, want ErrUnknownAddr", err)
	}
}

func TestSendToUnboundServiceSilentlyDrops(t *testing.T) {
	n, epA, _ := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	var err error
	n.Run(func() {
		err = epA.Send("b/ghost", []byte{1})
	})
	if err != nil {
		t.Fatalf("err = %v, want nil (datagram to dead socket is dropped)", err)
	}
	_, _, dropped := n.Stats()
	if dropped != 1 {
		t.Fatalf("dropped = %d, want 1", dropped)
	}
}

func TestCloseUnblocksRecv(t *testing.T) {
	n, _, epB := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	var err error
	n.Scheduler().Go(func() {
		_, err = epB.Recv()
	})
	n.Run(func() {
		n.Scheduler().Sleep(time.Second)
		epB.Close()
	})
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestSendOnClosedEndpoint(t *testing.T) {
	n, epA, epB := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	var err error
	n.Run(func() {
		epA.Close()
		err = epA.Send(epB.Addr(), []byte{1})
	})
	if !errors.Is(err, transport.ErrClosed) {
		t.Fatalf("err = %v, want ErrClosed", err)
	}
}

func TestDuplicateNodeRejected(t *testing.T) {
	n := New(1)
	n.MustAddNode("x", DefaultProfile())
	if _, err := n.AddNode("x", DefaultProfile()); err == nil {
		t.Fatal("duplicate AddNode succeeded")
	}
}

func TestDuplicateServiceRejected(t *testing.T) {
	n := New(1)
	a := n.MustAddNode("x", DefaultProfile())
	if _, err := a.Endpoint("svc"); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Endpoint("svc"); err == nil {
		t.Fatal("duplicate Endpoint succeeded")
	}
}

func TestZeroBandwidthRejected(t *testing.T) {
	n := New(1)
	if _, err := n.AddNode("x", Profile{}); err == nil {
		t.Fatal("zero-bandwidth node accepted")
	}
}

func TestDeterministicAcrossRuns(t *testing.T) {
	run := func() (time.Duration, int64) {
		pa := DefaultProfile()
		pa.Jitter = 5 * time.Millisecond
		pb := pa
		pb.LossRate = 0.2
		pb.WakeLag = time.Second
		pb.WakeLagSpread = 0.3
		n, epA, epB := twoNodeNet(t, pa, pb)
		n.Scheduler().Go(func() {
			for {
				if _, err := epB.Recv(); err != nil {
					return
				}
			}
		})
		n.Run(func() {
			for i := 0; i < 50; i++ {
				epA.SendFrame(epB.Addr(), nil, nil, 100_000)
			}
		})
		_, delivered, _ := n.Stats()
		return n.Scheduler().Elapsed(), delivered
	}
	e1, d1 := run()
	e2, d2 := run()
	if e1 != e2 || d1 != d2 {
		t.Fatalf("non-deterministic: run1 (%v, %d) vs run2 (%v, %d)", e1, d1, e2, d2)
	}
}

func TestVirtualQueuePushAtOrdering(t *testing.T) {
	s := vtime.NewScheduler()
	q := vtime.NewQueue(s)
	at := vtime.Epoch.Add(time.Second)
	q.PushAt("first", at)
	q.PushAt("second", at)
	var got []any
	s.Go(func() {
		for i := 0; i < 2; i++ {
			v, err := q.Pop()
			if err != nil {
				return
			}
			got = append(got, v)
		}
	})
	s.Wait()
	if len(got) != 2 || got[0] != "first" || got[1] != "second" {
		t.Fatalf("got %v, want [first second]", got)
	}
}

// TestPartitionIsDirected pins that Partition severs exactly the named
// direction: a→b cut leaves b→a delivering, and cutting both directions
// separately is how a symmetric partition is expressed.
func TestPartitionIsDirected(t *testing.T) {
	n, epA, epB := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	var atB, atA int
	n.Scheduler().Go(func() {
		for {
			if _, err := epB.Recv(); err != nil {
				return
			}
			atB++
		}
	})
	n.Scheduler().Go(func() {
		for {
			if _, err := epA.Recv(); err != nil {
				return
			}
			atA++
		}
	})
	n.Run(func() {
		n.Partition("a", "b", true)
		epA.Send(epB.Addr(), []byte{1}) // dropped: a→b severed
		epB.Send(epA.Addr(), []byte{2}) // delivered: reverse path untouched
		n.Partition("b", "a", true)
		epB.Send(epA.Addr(), []byte{3}) // dropped: now symmetric
		n.Partition("a", "b", false)
		epA.Send(epB.Addr(), []byte{4}) // delivered: a→b healed
	})
	if atB != 1 || atA != 1 {
		t.Fatalf("delivered %d at b and %d at a, want 1 and 1", atB, atA)
	}
}

// TestSetExtraLossAddsToEitherEndpoint pins the loss-burst hook: extra loss
// attached to one node degrades traffic to and from it, sums over both
// endpoints, and clearing it (rate 0) restores the baseline.
func TestSetExtraLossAddsToEitherEndpoint(t *testing.T) {
	n, epA, epB := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	received := 0
	n.Scheduler().Go(func() {
		for {
			if _, err := epB.Recv(); err != nil {
				return
			}
			received++
		}
	})
	const burst = 200
	var duringBurst int
	n.Run(func() {
		n.SetExtraLoss("b", 0.5)
		for i := 0; i < burst; i++ {
			epA.Send(epB.Addr(), []byte{byte(i)})
		}
		// Sends return at serialization, deliveries land one latency
		// later; drain the pipe before snapshotting and clearing.
		n.Scheduler().Sleep(time.Second)
		duringBurst = received
		n.SetExtraLoss("b", 0)
		for i := 0; i < burst; i++ {
			epA.Send(epB.Addr(), []byte{byte(i)})
		}
	})
	if duringBurst < burst/4 || duringBurst > 3*burst/4 {
		t.Fatalf("burst delivered %d of %d, want roughly half", duringBurst, burst)
	}
	n.Run(func() { n.Scheduler().Sleep(time.Second) })
	if after := received - duringBurst; after != burst {
		t.Fatalf("after clearing extra loss %d of %d delivered", after, burst)
	}
}

// TestSetExtraLossSaturatesAtOne pins the cap: summed endpoint rates above 1
// drop everything rather than corrupting the drop draw.
func TestSetExtraLossSaturatesAtOne(t *testing.T) {
	n, epA, epB := twoNodeNet(t, DefaultProfile(), DefaultProfile())
	received := 0
	n.Scheduler().Go(func() {
		for {
			if _, err := epB.Recv(); err != nil {
				return
			}
			received++
		}
	})
	n.Run(func() {
		n.SetExtraLoss("a", 0.7)
		n.SetExtraLoss("b", 0.7)
		for i := 0; i < 50; i++ {
			epA.Send(epB.Addr(), []byte{byte(i)})
		}
	})
	if received != 0 {
		t.Fatalf("received %d through a saturated link, want 0", received)
	}
}
