package overlay

import (
	"errors"
	"reflect"
	"testing"
	"time"

	"peerlab/internal/core"
	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

func TestSelectionErrorSentinels(t *testing.T) {
	for _, tc := range []struct {
		wire string
		want error
	}{
		{core.ErrNoCandidates.Error(), ErrNoCandidates},
		{"overlay: unknown selection model \"meteor\"", ErrModelUnknown},
	} {
		if err := selectionError(tc.wire); !errors.Is(err, tc.want) {
			t.Errorf("selectionError(%q) = %v, want %v", tc.wire, err, tc.want)
		}
	}
	if err := selectionError("something else entirely"); err == nil ||
		errors.Is(err, ErrNoCandidates) || errors.Is(err, ErrModelUnknown) {
		t.Errorf("unrecognized broker error mapped to a sentinel: %v", err)
	}
}

func TestSelectionNoCandidatesIsTyped(t *testing.T) {
	// A lone registered peer: selection excludes the requester, leaving no
	// candidates — the broker-side condition must surface as the sentinel,
	// not an opaque string.
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile()})
	var err error
	d.net.Run(func() {
		d.startAll(t)
		_, err = d.clients["sc1"].SelectPeers("blind", core.Request{Kind: core.KindMessage}, 1, nil)
	})
	if !errors.Is(err, ErrNoCandidates) {
		t.Fatalf("err = %v, want ErrNoCandidates", err)
	}
}

// TestEveryStandardModelIsServed pins the broker's model lineup to the names
// the sweep grammar accepts: each answers a select, and a name outside the
// list is ErrModelUnknown.
func TestEveryStandardModelIsServed(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile(), "sc3": clientProfile()})
	req := core.Request{Kind: core.KindFileTransfer, SizeBytes: transfer.Mb}
	var unknown error
	d.net.Run(func() {
		d.startAll(t)
		c := d.clients["sc1"]
		for _, model := range core.StandardModels() {
			var preferred []string
			if core.UsesPreferences(model) {
				preferred = []string{"sc3", "sc2"}
			}
			if peers, err := c.SelectPeers(model, req, 1, preferred); err != nil || len(peers) != 1 {
				t.Errorf("model %q: peers %v, err %v; want one peer", model, peers, err)
			}
		}
		_, unknown = c.SelectPeers("meteor", req, 1, nil)
	})
	if !errors.Is(unknown, ErrModelUnknown) {
		t.Fatalf("unlisted model: err = %v, want ErrModelUnknown", unknown)
	}
}

func TestCallRetriesThroughBlackout(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	for _, c := range d.clients {
		c.cfg.Resilient = true
	}
	var sel Selection
	var err error
	d.net.Run(func() {
		d.startAll(t)
		for _, c := range d.clients {
			if rerr := c.ReportStats(); rerr != nil {
				t.Errorf("ReportStats: %v", rerr)
			}
		}
		d.broker.SetDown(true)
		d.net.Scheduler().Go(func() {
			d.clients["sc2"].host.Sleep(5 * time.Second)
			d.broker.Restart()
			// The restarted broker has a cold cache; sc2's heartbeat
			// resurrects its directory entry before sc1's next retry.
			if rerr := d.clients["sc2"].ReportStats(); rerr != nil {
				t.Errorf("post-restart ReportStats: %v", rerr)
			}
		})
		sel, err = d.clients["sc1"].SelectDetailed("blind", core.Request{Kind: core.KindMessage}, 1, nil, nil)
	})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Degraded {
		t.Fatal("selection answered by the live broker must not be degraded")
	}
	if sel.Retries == 0 {
		t.Fatal("selection crossed a blackout without spending a retry")
	}
	if len(sel.Peers) != 1 || sel.Peers[0] != "sc2" {
		t.Fatalf("peers = %v, want [sc2]", sel.Peers)
	}
}

func TestDegradedSelectionFallsBackToCache(t *testing.T) {
	fast := clientProfile()
	fast.CPUScore = 4
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile(), "sc3": fast})
	for _, c := range d.clients {
		c.cfg.Resilient = true
	}
	var sel Selection
	var err error
	d.net.Run(func() {
		d.startAll(t)
		// Start seeds each directory cache, but sc1 booted before its
		// peers registered; refresh so the cache holds the full overlay.
		if _, derr := d.clients["sc1"].Discover(); derr != nil {
			t.Errorf("Discover: %v", derr)
		}
		d.broker.SetDown(true)
		sel, err = d.clients["sc1"].SelectDetailed("economic",
			core.Request{Kind: core.KindFileTransfer, SizeBytes: transfer.Mb}, 1, nil, nil)
	})
	if err != nil {
		t.Fatalf("degraded selection failed outright: %v", err)
	}
	if !sel.Degraded {
		t.Fatal("selection against a dead broker must be degraded")
	}
	if len(sel.Peers) != 1 || sel.Peers[0] != "sc3" {
		t.Fatalf("peers = %v, want [sc3] (highest cached CPU score)", sel.Peers)
	}
}

// TestSelectionWithoutDegradeFailsTyped: a client that is not Resilient makes
// one attempt and has no cache to degrade to, so a blackout fails the
// selection with the typed broker error.
func TestSelectionWithoutDegradeFailsTyped(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	var err error
	d.net.Run(func() {
		d.startAll(t)
		d.broker.SetDown(true)
		_, err = d.clients["sc1"].SelectPeers("blind", core.Request{Kind: core.KindMessage}, 1, nil)
	})
	if !errors.Is(err, ErrBrokerDown) {
		t.Fatalf("err = %v, want ErrBrokerDown", err)
	}
}

// TestStoppedClientIsNotABrokerOutage: a client whose own Stop closed its
// mux fails its control calls with pipe.ErrClosed, not ErrBrokerDown — a
// churn departure with a selection in flight is not a broker outage. A
// broker that is down or closed still is one.
func TestStoppedClientIsNotABrokerOutage(t *testing.T) {
	req := core.Request{Kind: core.KindMessage}
	for _, tc := range []struct {
		name    string
		resil   bool
		stopped bool
		act     func(d *deployment, c *Client) error
	}{
		{"selection after Stop", false, true, func(d *deployment, c *Client) error {
			c.Stop()
			_, err := c.SelectPeers("blind", req, 1, nil)
			return err
		}},
		{"selection in flight at Stop", false, true, func(d *deployment, c *Client) error {
			c.host.AfterFunc(time.Millisecond, c.Stop)
			_, err := c.SelectPeers("blind", req, 1, nil)
			return err
		}},
		{"resilient report after Stop", true, true, func(d *deployment, c *Client) error {
			c.Stop()
			return c.ReportStats()
		}},
		{"broker down", false, false, func(d *deployment, c *Client) error {
			d.broker.SetDown(true)
			_, err := c.SelectPeers("blind", req, 1, nil)
			return err
		}},
		{"broker closed", false, false, func(d *deployment, c *Client) error {
			d.broker.Close()
			_, err := c.SelectPeers("blind", req, 1, nil)
			return err
		}},
	} {
		d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
		c := d.clients["sc1"]
		var err error
		d.net.Run(func() {
			d.startAll(t)
			c.cfg.Resilient = tc.resil
			err = tc.act(d, c)
		})
		if err == nil {
			t.Errorf("%s: call succeeded", tc.name)
			continue
		}
		if tc.stopped && (errors.Is(err, ErrBrokerDown) || !errors.Is(err, pipe.ErrClosed)) {
			t.Errorf("%s: err = %v, want pipe.ErrClosed and not ErrBrokerDown", tc.name, err)
		}
		if !tc.stopped && !errors.Is(err, ErrBrokerDown) {
			t.Errorf("%s: err = %v, want ErrBrokerDown", tc.name, err)
		}
	}
}

// TestSilentPeerTimesOutNotTheBroker: a Resilient client calling a node that
// exists but has no client bound hears nothing back, so every attempt ends
// at its deadline. The call reports ErrCallTimeout after callRetries
// retries, and not ErrBrokerDown: the silent node is not the broker. An
// instant message to it fails the same way, and the broker records one
// failed message for it.
func TestSilentPeerTimesOutNotTheBroker(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile()})
	d.net.MustAddNode("mute", clientProfile())
	c := d.clients["sc1"]
	c.cfg.Resilient = true
	var callErr, sendErr error
	var retries int
	d.net.Run(func() {
		d.startAll(t)
		// One success first, so one recorded failure reads as 50 %.
		d.broker.Registry().Peer("mute").RecordMessage(true)
		payload := wire.Frame(mtInstant, instant{From: c.Name(), Text: "hello"}.encodeTo)
		_, retries, callErr = c.callRetried(transport.MakeAddr("mute", ServiceClient), payload)
		sendErr = c.SendInstant("mute", "hello")
	})
	for _, err := range []error{callErr, sendErr} {
		if !errors.Is(err, ErrCallTimeout) || errors.Is(err, ErrBrokerDown) {
			t.Errorf("err = %v, want ErrCallTimeout and not ErrBrokerDown", err)
		}
	}
	if retries != callRetries {
		t.Errorf("the call spent %d retries, want %d", retries, callRetries)
	}
	if got := d.broker.Registry().Peer("mute").Snapshot().PctMsgTotal; got != 50 {
		t.Errorf("mute's message success is %v %%, want 50: one failure beside the one success", got)
	}
}

func TestRegisterRetriesUntilBrokerReturns(t *testing.T) {
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile()})
	c := d.clients["sc1"]
	c.cfg.Resilient = true
	var err error
	d.net.Run(func() {
		d.broker.SetDown(true)
		d.net.Scheduler().Go(func() {
			c.host.Sleep(4 * time.Second)
			d.broker.SetDown(false)
		})
		err = c.Start()
	})
	if err != nil {
		t.Fatalf("Start did not survive a transient blackout: %v", err)
	}
	if peers := d.broker.Peers(); len(peers) != 1 || peers[0] != "sc1" {
		t.Fatalf("broker peers = %v, want [sc1]", peers)
	}
}

func TestBrokerRestartWipesLeases(t *testing.T) {
	d := deployShards(t, 3, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile()})
	var advsBefore, advsAfter int
	d.net.Run(func() {
		d.startAll(t)
		got, err := d.clients["sc1"].Discover()
		if err != nil {
			t.Errorf("Discover: %v", err)
		}
		advsBefore = len(got)
		d.broker.Restart()
		got, err = d.clients["sc1"].Discover()
		if err != nil {
			t.Errorf("post-restart Discover: %v", err)
		}
		advsAfter = len(got)
	})
	if advsBefore != 2 {
		t.Fatalf("discovered %d before restart, want 2", advsBefore)
	}
	if advsAfter != 0 {
		t.Fatalf("restart left %d advertisements in the cold cache", advsAfter)
	}
}

// TestResilientCallProfilePinned pins the one resilience profile on a
// selection through a scripted blackout: the broker sits on the first attempt
// until the deadline fires and drops each retry unanswered, so the pick comes
// from the cached directory. Every attempt's arrival at the broker, every
// jittered backoff (drawn from the client node's own stream) and the degraded
// outcome are pinned to the nanosecond.
func TestResilientCallProfilePinned(t *testing.T) {
	fast := clientProfile()
	fast.CPUScore = 4
	d := deploy(t, map[string]simnet.Profile{"sc1": clientProfile(), "sc2": clientProfile(), "sc3": fast})
	for _, c := range d.clients {
		c.cfg.Resilient = true
	}
	c := d.clients["sc1"]
	host := d.net.MustAddNode("blackout0", simnet.DefaultProfile())
	ep, err := host.Endpoint(ServiceBroker)
	if err != nil {
		t.Fatal(err)
	}
	mux := pipe.NewMux(host, ep, pipe.Options{})
	var start time.Time
	var arrivals []time.Duration
	host.Go(func() {
		for {
			conn, err := mux.Accept()
			if err != nil {
				return
			}
			host.Go(func() {
				defer conn.Close()
				if _, err := conn.Recv(); err != nil {
					return
				}
				arrivals = append(arrivals, host.Now().Sub(start))
				if len(arrivals) == 1 {
					host.Sleep(time.Minute) // silent: the caller's deadline fires
				}
			})
		}
	})
	var sel Selection
	var took time.Duration
	d.net.Run(func() {
		d.startAll(t)
		if _, err := c.Discover(); err != nil {
			t.Errorf("Discover: %v", err)
			return
		}
		c.broker = ep.Addr()
		start = d.net.Now()
		sel, err = c.SelectDetailed("economic", core.Request{Kind: core.KindFileTransfer, SizeBytes: transfer.Mb}, 1, nil, nil)
		took = d.net.Now().Sub(start)
		mux.Close()
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(arrivals) != 4 {
		t.Fatalf("%d attempts reached the broker, want 4: %v", len(arrivals), arrivals)
	}
	// Nothing but the backoff draws reads a simnet node's stream, so a twin
	// node of the same network seed and name replays the client's draws.
	twin := simnet.New(21).MustAddNode("sc1", clientProfile()).Rand()
	var backoffs []time.Duration
	for i, base := range []time.Duration{2 * time.Second, 4 * time.Second, 8 * time.Second} {
		backoffs = append(backoffs, time.Duration(float64(base)*(0.75+0.5*twin.Float64())))
		// What a gap holds besides the backoff: the deadline after the silent
		// first attempt, a reset and a resend after each dropped one.
		floor := time.Duration(0)
		if i == 0 {
			floor = 10 * time.Second
		}
		if rest := arrivals[i+1] - arrivals[i] - backoffs[i]; rest <= floor || rest > floor+time.Second {
			t.Errorf("retry %d: %v between arrivals besides its backoff %v", i+1, rest, backoffs[i])
		}
	}
	wantArrivals := []time.Duration{30017500, 12410356653, 16811510551, 23525902504}
	wantBackoffs := []time.Duration{2380336153, 4341127398, 6654365453}
	const wantTook = 23555911504
	if !reflect.DeepEqual(arrivals, wantArrivals) || !reflect.DeepEqual(backoffs, wantBackoffs) || took != wantTook {
		t.Errorf("attempts at %v after backoffs %v, degraded pick at %v; want %v, %v, %v",
			arrivals, backoffs, took, wantArrivals, wantBackoffs, time.Duration(wantTook))
	}
	if !sel.Degraded || sel.Retries != 3 || !reflect.DeepEqual(sel.Peers, []string{"sc3"}) {
		t.Errorf("selection = %+v, want degraded [sc3] after 3 retries", sel)
	}
}
