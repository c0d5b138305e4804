package peerlab

import (
	"errors"
	"reflect"
	"testing"
	"time"
)

func TestDeployRequiresPeers(t *testing.T) {
	if _, err := Deploy(Config{}); !errors.Is(err, ErrNoPeers) {
		t.Fatalf("err = %v, want ErrNoPeers", err)
	}
}

func TestCustomDeploymentTransfer(t *testing.T) {
	d, err := Deploy(Config{
		Seed:  42,
		Peers: []PeerConfig{{Name: "alpha"}, {Name: "beta"}},
	})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(func(s *Session) error {
		m, err := s.SendFile("alpha", NewVirtualFile("f", 2*Mb, 1), 4)
		if err != nil {
			return err
		}
		if m.TransmissionTime() <= 0 {
			t.Error("no transmission time")
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if d.Elapsed() <= 0 {
		t.Fatal("no virtual time elapsed")
	}
}

func TestPlanetLabDeployment(t *testing.T) {
	d, err := Deploy(Config{Seed: 7, Scenario: ScenarioTable1})
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Peers()) != 8 {
		t.Fatalf("peers = %d, want 8", len(d.Peers()))
	}
	err = d.Run(func(s *Session) error {
		// A transfer to the pathological SC7 node takes much longer than to
		// the healthy SC8 node.
		m7, err := s.SendFile("planetlab1.itwm.fhg.de", NewVirtualFile("f", 5*Mb, 1), 1)
		if err != nil {
			return err
		}
		m8, err := s.SendFile("planetlab1.ssvl.kth.se", NewVirtualFile("f", 5*Mb, 2), 1)
		if err != nil {
			return err
		}
		if m7.TransmissionTime() <= m8.TransmissionTime() {
			t.Errorf("SC7 (%v) not slower than SC8 (%v)",
				m7.TransmissionTime(), m8.TransmissionTime())
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestScenarioDeployment(t *testing.T) {
	d, err := Deploy(Config{Seed: 9, Scenario: "heterogeneous:24"})
	if err != nil {
		t.Fatal(err)
	}
	peers := d.Peers()
	if len(peers) != 24 {
		t.Fatalf("peers = %d, want 24", len(peers))
	}
	err = d.Run(func(s *Session) error {
		if _, err := s.SendFile(peers[0], NewVirtualFile("f", Mb, 1), 4); err != nil {
			return err
		}
		picked, err := s.SelectPeers(ModelEconomic,
			SelectionRequest{Kind: KindFileTransfer, SizeBytes: Mb}, 3, nil)
		if err != nil {
			return err
		}
		if len(picked) != 3 {
			t.Errorf("selection returned %d peers", len(picked))
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Deploy(Config{Scenario: "nope:raw"}); err == nil {
		t.Fatal("bad scenario spec accepted")
	}
}

func TestReproduceScenarioSmoke(t *testing.T) {
	suite, err := ReproduceScenario("uniform:3", 5, 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	fig := suite.Figure("fig2")
	if fig == nil || len(fig.Labels) != 3 {
		t.Fatalf("fig2 = %+v", fig)
	}
	if _, err := ReproduceScenario("bogus", 1, 1, 1); err == nil {
		t.Fatal("bogus scenario accepted")
	}
}

func TestSelectionThroughFacade(t *testing.T) {
	d, err := Deploy(Config{Seed: 7, Scenario: ScenarioTable1})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(func(s *Session) error {
		// Warm the statistics, then ask each model for a ranking.
		for _, p := range d.Peers() {
			if _, err := s.SendFile(p, NewVirtualFile("w", Mb, 1), 1); err != nil {
				return err
			}
		}
		req := SelectionRequest{Kind: KindFileTransfer, SizeBytes: 10 * Mb}
		for _, model := range []string{ModelBlind, ModelEconomic, ModelSamePriority} {
			peers, err := s.SelectPeers(model, req, 3, nil)
			if err != nil {
				return err
			}
			if len(peers) != 3 {
				t.Errorf("%s returned %d peers", model, len(peers))
			}
		}
		// The economic model must not pick the pathological SC7 first.
		peers, err := s.SelectPeers(ModelEconomic, req, 8, nil)
		if err != nil {
			return err
		}
		if peers[0] == "planetlab1.itwm.fhg.de" {
			t.Error("economic model picked SC7 first")
		}
		if peers[len(peers)-1] != "planetlab1.itwm.fhg.de" {
			t.Errorf("economic model did not rank SC7 last: %v", peers)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestDirectoryHoldsWholeCatalog is the regression test for the silently
// truncated directory: a deployment larger than the broker's default cache
// limit must still hold — and rank — every registered peer. Before the fix
// the broker kept 1024 of 1500 advertisements and which ones survived was
// an accident of eviction order.
func TestDirectoryHoldsWholeCatalog(t *testing.T) {
	const peers = 1500
	d, err := Deploy(Config{Seed: 11, Scenario: "uniform:1500"})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(func(s *Session) error {
		ranked, err := s.SelectPeers(ModelEconomic, SelectionRequest{Kind: KindFileTransfer, SizeBytes: Mb}, 0, nil)
		if err != nil {
			return err
		}
		if len(ranked) != peers {
			t.Errorf("economic ranked %d peers, want all %d", len(ranked), peers)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestTasksAndMessagingThroughFacade(t *testing.T) {
	d, err := Deploy(Config{Seed: 3, Peers: []PeerConfig{{Name: "w1"}}})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(func(s *Session) error {
		res, err := s.SubmitTask("w1", Task{Name: "t", WorkUnits: 5})
		if err != nil {
			return err
		}
		if !res.OK || res.Elapsed != 5*time.Second {
			t.Errorf("result = %+v", res)
		}
		if err := s.SendInstant("w1", "hi"); err != nil {
			return err
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	snaps := d.Snapshots()
	found := false
	for _, sn := range snaps {
		if sn.Peer == "w1" && sn.PctTaskExecSession == 100 && sn.PctMsgSession == 100 {
			found = true
		}
	}
	if !found {
		t.Fatalf("statistics not recorded: %+v", snaps)
	}
}

func TestDeterministicAcrossDeployments(t *testing.T) {
	run := func() time.Duration {
		d, err := Deploy(Config{Seed: 11, Scenario: ScenarioTable1})
		if err != nil {
			t.Fatal(err)
		}
		if err := d.Run(func(s *Session) error {
			_, err := s.SendFile("ait05.us.es", NewVirtualFile("f", 10*Mb, 1), 4)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		return d.Elapsed()
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("same seed produced different elapsed times: %v vs %v", a, b)
	}
}

func TestSessionRunWorkload(t *testing.T) {
	d, err := Deploy(Config{
		Seed:     21,
		Peers:    []PeerConfig{{Name: "w1"}, {Name: "w2"}, {Name: "w3"}},
		Workload: "allpairs:3",
	})
	if err != nil {
		t.Fatal(err)
	}
	var pairs, swarm []FlowResult
	err = d.Run(func(s *Session) error {
		var err error
		if pairs, err = s.RunWorkload(""); err != nil {
			return err
		}
		swarm, err = s.RunWorkload("swarm:4")
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pairs) != 6 {
		t.Fatalf("allpairs:3 ran %d flows, want 6", len(pairs))
	}
	for i, r := range pairs {
		if r.Flow.Index != i || r.Flow.Source == "" || r.Sink == r.Flow.Source {
			t.Fatalf("pair flow %d = %+v", i, r)
		}
		if r.Metrics.TransmissionTime() <= 0 || r.Metrics.Attempts != 1 {
			t.Fatalf("pair flow %d unmeasured: %+v", i, r.Metrics)
		}
	}
	for _, r := range swarm {
		if r.Sink == "controller" || r.Sink == r.Flow.Source || r.Flow.Model == "" {
			t.Fatalf("swarm flow picked a bad sink: %+v", r)
		}
	}
	// Flow attribution: peer sources show up in the broker's statistics.
	originated := 0.0
	for _, sn := range d.Snapshots() {
		if sn.Peer == "w1" || sn.Peer == "w2" || sn.Peer == "w3" {
			originated += sn.TransfersOriginated
		}
	}
	if originated != float64(len(pairs)+len(swarm)) {
		t.Fatalf("peers originated %v flows in the stats, want %d", originated, len(pairs)+len(swarm))
	}
	if _, err := Deploy(Config{Peers: []PeerConfig{{Name: "x"}}, Workload: "bogus"}); err == nil {
		t.Fatal("bad workload spec accepted")
	}
}

func TestGroupRunsProcessesConcurrently(t *testing.T) {
	d, err := Deploy(Config{Seed: 5, Peers: []PeerConfig{{Name: "w1"}, {Name: "w2"}}})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(func(s *Session) error {
		g := s.Group()
		for _, peer := range []string{"w1", "w2"} {
			peer := peer
			g.Go(func() error {
				_, err := s.SubmitTask(peer, Task{Name: "p", WorkUnits: 10})
				return err
			})
		}
		return g.Wait()
	})
	if err != nil {
		t.Fatal(err)
	}
	// Two 10s tasks on two peers must overlap: total well under 20s.
	if d.Elapsed() >= 20*time.Second {
		t.Fatalf("elapsed %v; group processes did not overlap", d.Elapsed())
	}
}

func TestGroupPropagatesError(t *testing.T) {
	d, err := Deploy(Config{Seed: 5, Peers: []PeerConfig{{Name: "w1"}}})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(func(s *Session) error {
		g := s.Group()
		g.Go(func() error {
			_, err := s.SubmitTask("no-such-peer", Task{WorkUnits: 1})
			return err
		})
		g.Go(func() error { return nil })
		return g.Wait()
	})
	if err == nil {
		t.Fatal("group swallowed the error")
	}
}

// TestChurnDeploymentThroughFacade pins the public churn surface: a
// Config.Scenario of churn:N runs the membership schedule inside Run, the
// default workload is the scenario's swarm hint, flow failures against
// departed peers are recorded (not fatal), and two identical deployments
// produce identical results.
func TestChurnDeploymentThroughFacade(t *testing.T) {
	run := func() ([]FlowResult, int, error) {
		d, err := Deploy(Config{Seed: 2007, Scenario: "churn:12"})
		if err != nil {
			return nil, 0, err
		}
		var results []FlowResult
		departed := 0
		err = d.Run(func(s *Session) error {
			var rerr error
			results, rerr = s.RunWorkload("")
			departed = s.PeersDeparted()
			if rerr != nil {
				return rerr
			}
			// Direct Session sends must accept Peers() values (catalog
			// labels) under churn too: at least one peer is still up and
			// reachable by label.
			sent := false
			for _, p := range d.Peers() {
				if _, err := s.SendFile(p, NewVirtualFile("probe", Mb, 1), 1); err == nil {
					sent = true
					break
				}
			}
			if !sent {
				t.Error("no Peers() label was sendable after the workload")
			}
			return nil
		})
		return results, departed, err
	}
	a, departed, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 12 {
		t.Fatalf("got %d flows, want the swarm:12 hint", len(a))
	}
	if departed == 0 {
		t.Fatal("PeersDeparted = 0 on a churn scenario")
	}
	completed := 0
	for _, r := range a {
		if r.Err == "" {
			completed++
			if r.Flow.Model == "" || r.Sink == "" {
				t.Fatalf("flow %d not model-selected: %+v", r.Flow.Index, r.Flow)
			}
		}
	}
	if completed == 0 {
		t.Fatal("no flow completed under churn")
	}
	b, _, err := run()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("identical churn deployments diverged")
	}
}

// TestSessionRunsPieceEngine: a dissemination or streaming workload asked
// of the facade — by scenario hint, explicit spec, or Config.Workload, on
// static and churning deployments — must run the multi-round piece engine,
// not the single-round executor: pieces move, downloaders re-originate, and
// two runs of one seed agree.
func TestSessionRunsPieceEngine(t *testing.T) {
	run := func(cfg Config, spec string) []FlowResult {
		t.Helper()
		d, err := Deploy(cfg)
		if err != nil {
			t.Fatal(err)
		}
		var results []FlowResult
		if err := d.Run(func(s *Session) error {
			var rerr error
			results, rerr = s.RunWorkload(spec)
			return rerr
		}); err != nil {
			t.Fatalf("%+v RunWorkload(%q): %v", cfg, spec, err)
		}
		return results
	}
	for _, tc := range []struct {
		name string
		cfg  Config
		spec string
		// whole: membership is static, so every downloader must finish.
		whole bool
	}{
		{"scenario hint", Config{Seed: 2007, Scenario: "zipf:8"}, "", true},
		{"explicit stream", Config{Seed: 2007, Scenario: "zipf:8"}, "stream:4;pick=rarest", true},
		{"Config.Workload", Config{Seed: 2007, Scenario: "heterogeneous:8", Workload: "disseminate:8;pieces=16"}, "", true},
		{"churning", Config{Seed: 2007, Scenario: "churn:12"}, "disseminate:12;pieces=16", false},
	} {
		a := run(tc.cfg, tc.spec)
		if len(a) == 0 {
			t.Fatalf("%s: no flows", tc.name)
		}
		pieces, reoriginated := 0, 0
		for _, r := range a {
			if tc.whole && (r.Pieces == 0 || r.Err != "") {
				t.Fatalf("%s: flow %d moved %d pieces (err %q); single-round executor ran?", tc.name, r.Flow.Index, r.Pieces, r.Err)
			}
			pieces += r.Pieces
			if r.ReOriginated {
				reoriginated++
			}
		}
		if pieces == 0 || reoriginated == 0 {
			t.Fatalf("%s: %d pieces moved, %d downloaders re-originated; not a swarm", tc.name, pieces, reoriginated)
		}
		if b := run(tc.cfg, tc.spec); !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: identical deployments diverged", tc.name)
		}
	}
}

// TestStaticSessionHasNoChurn pins the static default: no schedule, no
// departures, RunWorkload failures stay fatal.
func TestStaticSessionHasNoChurn(t *testing.T) {
	d, err := Deploy(Config{Seed: 3, Scenario: "uniform:4"})
	if err != nil {
		t.Fatal(err)
	}
	err = d.Run(func(s *Session) error {
		if s.PeersDeparted() != 0 {
			t.Errorf("static deployment reports %d departures", s.PeersDeparted())
		}
		results, rerr := s.RunWorkload("")
		if rerr != nil {
			return rerr
		}
		for _, r := range results {
			if r.Err != "" {
				t.Errorf("static flow carries recorded failure %q", r.Err)
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestRunSweepThroughFacade pins the public sweep surface: Config.Sweep
// expands against the config's scenario/workload defaults, the report comes
// back in canonical expansion order, and it is bit-identical at any worker
// count.
func TestRunSweepThroughFacade(t *testing.T) {
	cfg := Config{
		Seed:     2007,
		Scenario: "uniform:5",
		Workload: "swarm:5",
		Sweep:    "granularity=2,4;rep=2",
	}
	a, err := RunSweep(cfg, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if len(a.Cells) != 4 {
		t.Fatalf("cells = %d, want 2 granularities × 2 reps", len(a.Cells))
	}
	for i, c := range a.Cells {
		wantParts := []int{2, 2, 4, 4}[i]
		if c.Scenario != "uniform:5" || c.Workload != "swarm:5" || c.Parts != wantParts {
			t.Fatalf("cell %d = %+v", i, c)
		}
		if c.Summary.Flows != 5 {
			t.Fatalf("cell %d flows = %d", i, c.Summary.Flows)
		}
	}
	b, err := RunSweep(cfg, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("facade sweep diverged across worker counts:\n%+v\nvs\n%+v", a, b)
	}

	if _, err := RunSweep(Config{Sweep: "turnips=1"}, 0, 1); err == nil {
		t.Fatal("malformed sweep spec accepted")
	}
}
