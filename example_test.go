package peerlab_test

import (
	"fmt"
	"go/doc"
	"go/parser"
	"go/token"
	"sort"
	"testing"
	"time"

	"peerlab"
)

// Quickstart: deploy a simulated slice from a scenario spec, transfer
// files, run a task, and let the broker pick the best peer. Everything
// happens on virtual time — the program finishes in milliseconds while
// simulating minutes.
//
// The scenario layer synthesizes the slice: "heterogeneous:8" draws eight
// peers from a PlanetLab-like mixture of healthy, loaded and pathological
// slivers (seed-deterministic), so the same program scales to
// "heterogeneous:128" by changing one string.
func Example_quickstart() {
	d, err := peerlab.Deploy(peerlab.Config{
		Seed:     1,
		Scenario: "heterogeneous:8",
	})
	if err != nil {
		fmt.Println(err)
		return
	}
	peers := d.Peers()

	err = d.Run(func(s *peerlab.Session) error {
		// Let the peers fall idle after registration, so loaded slivers'
		// wake-up lag is visible (an engaged sliver answers promptly).
		s.Sleep(2 * time.Minute)

		// 1. File transmission with per-part confirmation (the paper's
		//    protocol) to a couple of peers: the mixture shows through the
		//    petition and transmission times.
		for _, peer := range peers[:2] {
			m, err := s.SendFile(peer, peerlab.NewVirtualFile("dataset.bin", 5*peerlab.Mb, 1), 4)
			if err != nil {
				return err
			}
			fmt.Printf("%-28s petition %8v   transmission %8v\n",
				peer, m.PetitionDelay().Round(time.Millisecond),
				m.TransmissionTime().Round(time.Millisecond))
		}

		// 2. Ask the broker to pick the best peer for a big transfer, then
		//    use the recommendation.
		picked, err := s.SelectPeers(peerlab.ModelEconomic,
			peerlab.SelectionRequest{Kind: peerlab.KindFileTransfer, SizeBytes: 50 * peerlab.Mb},
			1, nil)
		if err != nil {
			return err
		}
		fmt.Printf("economic model recommends: %s\n", picked[0])

		// 3. Task execution on the recommended peer.
		res, err := s.SubmitTask(picked[0], peerlab.Task{Name: "analyze", WorkUnits: 30})
		if err != nil {
			return err
		}
		fmt.Printf("task on %s: ok=%v in %v\n", res.Peer, res.OK, res.Elapsed)
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("\nsimulated %v of network time\n", d.Elapsed().Round(time.Second))
	for _, snap := range d.Snapshots() {
		if snap.TransferRate > 0 {
			fmt.Printf("  %-28s measured rate %.0f B/s, petition delay %v\n",
				snap.Peer, snap.TransferRate, snap.PetitionDelay.Round(time.Millisecond))
		}
	}

	// Output:
	// p001.hetero.slice.peerlab    petition     33ms   transmission   3.594s
	// p002.hetero.slice.peerlab    petition  17.315s   transmission  11.281s
	// economic model recommends: p001.hetero.slice.peerlab
	// task on p001.hetero.slice.peerlab: ok=true in 27.427632595s
	//
	// simulated 3m1s of network time
	//   p001.hetero.slice.peerlab    measured rate 1391367 B/s, petition delay 33ms
	//   p002.hetero.slice.peerlab    measured rate 443212 B/s, petition delay 17.315s
}

// Filedistribution reproduces the scenario behind the paper's Figure 5 on
// the calibrated PlanetLab slice: distributing a large virtual-campus file
// (100 Mb) to every SimpleClient peer, whole versus split into parts, and
// showing why "sending the file as a whole is not worth it".
func Example_filedistribution() {
	d, err := peerlab.Deploy(peerlab.Config{Seed: 2007, Scenario: peerlab.ScenarioTable1})
	if err != nil {
		fmt.Println(err)
		return
	}

	type row struct {
		peer  string
		whole time.Duration
		parts time.Duration
	}
	var rows []row

	err = d.Run(func(s *peerlab.Session) error {
		for _, peer := range d.Peers() {
			whole, err := s.SendFile(peer, peerlab.NewVirtualFile("campus.iso", 100*peerlab.Mb, 1), 1)
			if err != nil {
				return fmt.Errorf("whole to %s: %w", peer, err)
			}
			s.Sleep(5 * time.Minute) // let the peer go idle again
			split, err := s.SendFile(peer, peerlab.NewVirtualFile("campus.iso", 100*peerlab.Mb, 2), 16)
			if err != nil {
				return fmt.Errorf("16 parts to %s: %w", peer, err)
			}
			rows = append(rows, row{peer, whole.TransmissionTime(), split.TransmissionTime()})
			s.Sleep(5 * time.Minute)
		}
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Println("100 Mb to each SimpleClient peer (whole vs 16 parts):")
	var sumW, sumP time.Duration
	for _, r := range rows {
		fmt.Printf("  %-36s whole %9v   16 parts %9v   speedup %.1fx\n",
			r.peer, r.whole.Round(time.Second), r.parts.Round(time.Second),
			float64(r.whole)/float64(r.parts))
		sumW += r.whole
		sumP += r.parts
	}
	n := time.Duration(len(rows))
	fmt.Printf("\naverages: whole %v, 16 parts %v — the paper's conclusion holds:\n",
		(sumW / n).Round(time.Second), (sumP / n).Round(time.Second))
	fmt.Println("splitting the file dominates sending it whole, on every peer.")

	// Output:
	// 100 Mb to each SimpleClient peer (whole vs 16 parts):
	//   ait05.us.es                          whole      6m1s   16 parts     1m36s   speedup 3.8x
	//   planetlab1.hiit.fi                   whole     3m59s   16 parts      1m6s   speedup 3.6x
	//   planetlab01.cs.tcd.ie                whole      7m8s   16 parts     1m57s   speedup 3.7x
	//   planetlab1.csg.unizh.ch              whole     4m34s   16 parts     1m16s   speedup 3.6x
	//   edi.tkn.tu-berlin.de                 whole     6m29s   16 parts     1m45s   speedup 3.7x
	//   lsirextpc01.epfl.ch                  whole     4m55s   16 parts     1m21s   speedup 3.6x
	//   planetlab1.itwm.fhg.de               whole  1h48m16s   16 parts     4m23s   speedup 24.7x
	//   planetlab1.ssvl.kth.se               whole     4m15s   16 parts     1m11s   speedup 3.6x
	//
	// averages: whole 18m12s, 16 parts 1m49s — the paper's conclusion holds:
	// splitting the file dominates sending it whole, on every peer.
}

// Selectioncompare runs the paper's Figure 6 scenario as an application:
// after a working session warms the broker's statistics, the same 1 Mb
// transfer is dispatched through each selection model, showing how the
// models disagree — and what the disagreement costs.
func Example_selectioncompare() {
	d, err := peerlab.Deploy(peerlab.Config{Seed: 2007, Scenario: peerlab.ScenarioTable1})
	if err != nil {
		fmt.Println(err)
		return
	}

	// The user's memory of "quick peers" from an older session: SC3 was
	// quick once (it no longer is) — exactly the staleness §2.3 warns about.
	remembered := []string{"planetlab01.cs.tcd.ie", "lsirextpc01.epfl.ch"}

	type outcome struct {
		model string
		peer  string
		time  time.Duration
	}
	var outcomes []outcome

	err = d.Run(func(s *peerlab.Session) error {
		// Warm-up session: the broker learns transfer rates and petition
		// delays for every peer.
		for _, peer := range d.Peers() {
			if _, err := s.SendFile(peer, peerlab.NewVirtualFile("warmup", peerlab.Mb, 1), 2); err != nil {
				return err
			}
		}
		req := peerlab.SelectionRequest{Kind: peerlab.KindFileTransfer, SizeBytes: peerlab.Mb}
		for _, model := range []string{
			peerlab.ModelEconomic,
			peerlab.ModelSamePriority,
			peerlab.ModelQuickPeer,
			peerlab.ModelBlind,
		} {
			var preferred []string
			if model == peerlab.ModelQuickPeer {
				preferred = remembered
			}
			peers, err := s.SelectPeers(model, req, 1, preferred)
			if err != nil {
				return err
			}
			s.Sleep(10 * time.Minute) // peers fall idle between trials
			m, err := s.SendFile(peers[0], peerlab.NewVirtualFile("payload", peerlab.Mb, 7), 4)
			if err != nil {
				return err
			}
			outcomes = append(outcomes, outcome{model, peers[0], m.TransmissionTime()})
		}
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Println("1 Mb in 4 parts via each selection model:")
	for _, o := range outcomes {
		fmt.Printf("  %-14s chose %-36s transmission %v\n",
			o.model, o.peer, o.time.Round(time.Millisecond))
	}
	fmt.Println("\nthe economic model plans with current load; same-priority")
	fmt.Println("weighs the full statistical record; quick-peer trusts stale")
	fmt.Println("user memory — the paper's ranking (Figure 6) emerges.")

	// Output:
	// 1 Mb in 4 parts via each selection model:
	//   economic       chose planetlab1.hiit.fi                   transmission 801ms
	//   same-priority  chose planetlab1.hiit.fi                   transmission 810ms
	//   quick-peer     chose planetlab01.cs.tcd.ie                transmission 1.385s
	//   blind          chose ait05.us.es                          transmission 1.171s
	//
	// the economic model plans with current load; same-priority
	// weighs the full statistical record; quick-peer trusts stale
	// user memory — the paper's ranking (Figure 6) emerges.
}

const (
	batch = 24
	work  = 60.0 // reference-seconds per task
)

func runBatch(seed int64, model string) (time.Duration, error) {
	d, err := peerlab.Deploy(peerlab.Config{Seed: seed, Scenario: peerlab.ScenarioTable1})
	if err != nil {
		return 0, err
	}
	var makespan time.Duration
	err = d.Run(func(s *peerlab.Session) error {
		start := s.Now()
		// One placement decision per task, as the broker would serve them;
		// execution overlaps across peers via the session's process group.
		g := s.Group()
		for i := 0; i < batch; i++ {
			peers, err := s.SelectPeers(model,
				peerlab.SelectionRequest{Kind: peerlab.KindTask, WorkUnits: work}, 1, nil)
			if err != nil {
				return err
			}
			peer := peers[0]
			id := i
			g.Go(func() error {
				_, err := s.SubmitTask(peer, peerlab.Task{
					Name:      fmt.Sprintf("chunk-%d", id),
					WorkUnits: work,
				})
				return err
			})
			s.Sleep(2 * time.Second) // inter-arrival gap
		}
		if err := g.Wait(); err != nil {
			return err
		}
		makespan = s.Now().Sub(start)
		return nil
	})
	return makespan, err
}

// Computefarm uses the overlay as the paper's intro motivates — a
// distributed computing platform (seti@home-style): a batch of processing
// tasks is dispatched across the PlanetLab peers, comparing blind
// round-robin placement with the scheduling-based (economic) model.
func Example_computefarm() {
	blind, err := runBatch(11, peerlab.ModelBlind)
	if err != nil {
		fmt.Println(err)
		return
	}
	economic, err := runBatch(11, peerlab.ModelEconomic)
	if err != nil {
		fmt.Println(err)
		return
	}
	fmt.Printf("dispatching %d tasks of %.0f reference-seconds each:\n", batch, work)
	fmt.Printf("  blind round-robin: makespan %v\n", blind.Round(time.Second))
	fmt.Printf("  economic model:    makespan %v\n", economic.Round(time.Second))
	fmt.Println("\nthe economic model avoids queueing work on the slowest slivers,")
	fmt.Println("matching the paper's conclusion that peers must not be used blindly.")

	// Output:
	// dispatching 24 tasks of 60 reference-seconds each:
	//   blind round-robin: makespan 6m52s
	//   economic model:    makespan 3m57s
	//
	// the economic model avoids queueing work on the slowest slivers,
	// matching the paper's conclusion that peers must not be used blindly.
}

// Swarm drives the workload layer beyond the paper: instead of the control
// node fanning files out (the only traffic shape the paper measures), a
// swarm of peers originate transfers to each other, each consulting the
// broker's peer-selection service itself before transmitting — the
// BitTorrent-style multi-source regime the platform's primitives always
// supported but the old harness could not express.
func Example_swarm() {
	d, err := peerlab.Deploy(peerlab.Config{
		Seed:     2007,
		Scenario: "heterogeneous:24",
		Workload: "swarm:24",
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	var warm, swarm []peerlab.FlowResult
	err = d.Run(func(s *peerlab.Session) error {
		// A working session first: the controller distributes a file to
		// every peer, which fills the broker's statistics — rates, petition
		// delays — that the swarm's selection calls will consult.
		var err error
		if warm, err = s.RunWorkload("controller-fanout"); err != nil {
			return err
		}
		// Now the swarm: 24 peer↔peer flows, each source calling the
		// broker's selection service (economic / same-priority) itself.
		swarm, err = s.RunWorkload("")
		return err
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("warm-up: controller fanned out %d flows\n\n", len(warm))
	fmt.Println("swarm flows (each source selected its own sink via the broker):")
	for _, r := range swarm {
		fmt.Printf("  flow %2d  %-28s -> %-28s %-14s %d Mb in %d parts  %6.2fs  attempts=%d\n",
			r.Flow.Index, r.Flow.Source, r.Sink, r.Flow.Model,
			r.Flow.SizeBytes/peerlab.Mb, r.Flow.Parts,
			r.Metrics.TransmissionTime().Seconds(), r.Metrics.Attempts)
	}

	// Per-flow attribution: the broker's statistics now know who *sourced*
	// traffic, not just who received it from the controller.
	type origin struct {
		peer      string
		transfers float64
		mb        float64
	}
	var origins []origin
	for _, sn := range d.Snapshots() {
		if sn.TransfersOriginated > 0 {
			origins = append(origins, origin{sn.Peer, sn.TransfersOriginated, sn.BytesOriginated / 1e6})
		}
	}
	sort.Slice(origins, func(i, j int) bool { return origins[i].mb > origins[j].mb })
	fmt.Println("\ntop traffic sources (from the broker's origin attribution):")
	for i, o := range origins {
		if i == 8 {
			break
		}
		fmt.Printf("  %-28s %3.0f transfers  %6.0f Mb originated\n", o.peer, o.transfers, o.mb)
	}
	fmt.Printf("\nelapsed virtual time: %v\n", d.Elapsed().Round(1e9))

	// Output:
	// warm-up: controller fanned out 24 flows
	//
	// swarm flows (each source selected its own sink via the broker):
	//   flow  0  p001.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       3 Mb in 4 parts    8.03s  attempts=1
	//   flow  1  p023.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  1 Mb in 4 parts   17.23s  attempts=1
	//   flow  2  p014.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       2 Mb in 4 parts    4.81s  attempts=1
	//   flow  3  p020.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  2 Mb in 4 parts    4.86s  attempts=1
	//   flow  4  p009.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       3 Mb in 4 parts    2.82s  attempts=1
	//   flow  5  p020.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  2 Mb in 4 parts    4.78s  attempts=1
	//   flow  6  p002.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       2 Mb in 4 parts    2.01s  attempts=1
	//   flow  7  p020.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  2 Mb in 4 parts    5.29s  attempts=1
	//   flow  8  p006.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       2 Mb in 4 parts    2.09s  attempts=1
	//   flow  9  p023.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  4 Mb in 4 parts   17.13s  attempts=1
	//   flow 10  p003.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       1 Mb in 4 parts    4.85s  attempts=1
	//   flow 11  p010.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  2 Mb in 4 parts    2.01s  attempts=1
	//   flow 12  p003.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       2 Mb in 4 parts    4.65s  attempts=1
	//   flow 13  p007.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  3 Mb in 4 parts    2.18s  attempts=1
	//   flow 14  p005.hetero.slice.peerlab    -> p010.hetero.slice.peerlab    economic       3 Mb in 4 parts    2.04s  attempts=1
	//   flow 15  p012.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  3 Mb in 4 parts    2.87s  attempts=1
	//   flow 16  p015.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       1 Mb in 4 parts    7.85s  attempts=1
	//   flow 17  p008.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  4 Mb in 4 parts    5.70s  attempts=1
	//   flow 18  p014.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       3 Mb in 4 parts    4.75s  attempts=1
	//   flow 19  p024.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  4 Mb in 4 parts    3.74s  attempts=1
	//   flow 20  p014.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       4 Mb in 4 parts    5.05s  attempts=1
	//   flow 21  p015.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  4 Mb in 4 parts    7.94s  attempts=1
	//   flow 22  p003.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    economic       1 Mb in 4 parts    4.85s  attempts=1
	//   flow 23  p001.hetero.slice.peerlab    -> p005.hetero.slice.peerlab    same-priority  3 Mb in 4 parts    7.14s  attempts=1
	//
	// top traffic sources (from the broker's origin attribution):
	//   control.slice.peerlab         24 transfers      24 Mb originated
	//   p014.hetero.slice.peerlab      3 transfers       9 Mb originated
	//   p001.hetero.slice.peerlab      2 transfers       6 Mb originated
	//   p020.hetero.slice.peerlab      3 transfers       6 Mb originated
	//   p023.hetero.slice.peerlab      2 transfers       5 Mb originated
	//   p015.hetero.slice.peerlab      2 transfers       5 Mb originated
	//   p024.hetero.slice.peerlab      1 transfers       4 Mb originated
	//   p003.hetero.slice.peerlab      3 transfers       4 Mb originated
	//
	// elapsed virtual time: 23s
}

// Churn runs a swarm workload over a slice whose membership is alive: peers
// join staggered, vanish abruptly mid-session (no goodbye — the broker only
// learns of a departure when the peer's advertisement lease expires), rejoin
// after a downtime, and whole sites fail together. This is the PlanetLab
// regime the paper's static 8-peer evaluation never reaches, and exactly
// where peer-selection policy matters most: a selection can land on a peer
// that is already gone but still inside its lease window.
func Example_churn() {
	d, err := peerlab.Deploy(peerlab.Config{
		Seed:     2007,
		Scenario: "churn:32",
		// No Workload: a churn scenario's hint is swarm:N — every flow's
		// source picks its own sink through the broker's selection service.
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	var results []peerlab.FlowResult
	err = d.Run(func(s *peerlab.Session) error {
		// The conductor is already running the schedule: the initial
		// population is up, later joins and leaves fire on virtual time
		// while these flows execute.
		var rerr error
		results, rerr = s.RunWorkload("")
		if rerr != nil {
			return rerr
		}
		fmt.Printf("churn:32 schedule: %d departures over the session\n\n", s.PeersDeparted())
		return nil
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	completed, failed := 0, 0
	fmt.Println("swarm flows under churn (failures are measurements, not bugs):")
	for _, r := range results {
		if r.Err != "" {
			failed++
			fmt.Printf("  flow %2d  %-8s -> %-8s FAILED: %s\n",
				r.Flow.Index, r.Flow.Source, orDash(r.Sink), r.Err)
			continue
		}
		completed++
		fmt.Printf("  flow %2d  %-8s -> %-8s %-14s %d Mb  %6.2fs  attempts=%d\n",
			r.Flow.Index, r.Flow.Source, r.Sink, r.Flow.Model,
			r.Flow.SizeBytes/peerlab.Mb,
			r.Metrics.TransmissionTime().Seconds(), r.Metrics.Attempts)
	}
	fmt.Printf("\n%d flows completed, %d failed against departed peers\n", completed, failed)
	fmt.Printf("elapsed virtual time: %v\n", d.Elapsed().Round(1e9))

	// Output:
	// churn:32 schedule: 41 departures over the session
	//
	// swarm flows under churn (failures are measurements, not bugs):
	//   flow  0  p025     -> p005     economic       3 Mb    3.28s  attempts=1
	//   flow  1  p001     -> p005     same-priority  1 Mb    1.73s  attempts=1
	//   flow  2  p007     -> p004     economic       2 Mb    1.83s  attempts=1
	//   flow  3  p012     -> p005     same-priority  2 Mb    2.02s  attempts=1
	//   flow  4  p017     -> p002     economic       3 Mb    2.21s  attempts=1
	//   flow  5  p004     -> p001     same-priority  2 Mb    3.18s  attempts=1
	//   flow  6  p002     -> p004     economic       2 Mb    1.94s  attempts=1
	//   flow  7  p004     -> p005     same-priority  2 Mb    1.80s  attempts=1
	//   flow  8  p001     -> p002     economic       2 Mb    3.13s  attempts=1
	//   flow  9  p015     -> p003     same-priority  4 Mb    6.89s  attempts=1
	//   flow 10  p001     -> p002     economic       1 Mb    1.80s  attempts=1
	//   flow 11  p010     -> p004     same-priority  2 Mb    1.85s  attempts=1
	//   flow 12  p019     -> p002     economic       2 Mb    6.94s  attempts=1
	//   flow 13  p023     -> p008     same-priority  3 Mb   10.93s  attempts=1
	//   flow 14  p005     -> p004     economic       3 Mb    2.57s  attempts=1
	//   flow 15  p028     -> p005     same-priority  3 Mb    2.94s  attempts=1
	//   flow 16  p031     -> p002     economic       1 Mb    1.87s  attempts=1
	//   flow 17  p024     -> p003     same-priority  4 Mb    5.41s  attempts=1
	//   flow 18  p006     -> p005     economic       3 Mb    2.96s  attempts=1
	//   flow 19  p016     -> p005     same-priority  4 Mb    4.79s  attempts=1
	//   flow 20  p030     -> p005     economic       4 Mb    3.92s  attempts=1
	//   flow 21  p023     -> p005     same-priority  4 Mb   14.32s  attempts=1
	//   flow 22  p011     -> p004     economic       1 Mb    1.08s  attempts=1
	//   flow 23  p017     -> p002     same-priority  3 Mb    2.18s  attempts=1
	//   flow 24  p015     -> p004     economic       4 Mb    6.84s  attempts=1
	//   flow 25  p010     -> p003     same-priority  3 Mb    4.07s  attempts=1
	//   flow 26  p028     -> p002     economic       3 Mb    3.05s  attempts=1
	//   flow 27  p015     -> p005     same-priority  4 Mb    6.68s  attempts=1
	//   flow 28  p024     -> p004     economic       1 Mb    1.29s  attempts=1
	//   flow 29  p004     -> p003     FAILED: p004.churn.slice.peerlab -> p003: overlay: client stopped: pipe: closed
	//   flow 30  p009     -> p004     economic       4 Mb    3.66s  attempts=1
	//   flow 31  p015     -> p002     same-priority  2 Mb    3.65s  attempts=1
	//
	// 31 flows completed, 1 failed against departed peers
	// elapsed virtual time: 9m52s
}

func orDash(s string) string {
	if s == "" {
		return "-"
	}
	return s
}

// Faulttolerance runs a swarm workload while the control plane fails on
// schedule: the broker blacks out and restarts with a cold cache, whole
// sites lose their path to it, and its uplink sheds packets in bursts. The
// peers stay up the entire time — what is under test is the selection
// control plane, the part of the paper's architecture that a real
// PlanetLab deployment can least rely on. Clients ride it out with the
// resilient call policy: deadlines and retries against a silent broker,
// and degraded selection over their cached directory when retries run out.
// A flow that recovered — retried or degraded its way to a transfer — is a
// success with a story, not a failure.
func Example_faulttolerance() {
	d, err := peerlab.Deploy(peerlab.Config{
		Seed:     2007,
		Scenario: "faults:24",
		// No Workload: a faults scenario's hint is swarm:N — each source
		// peer petitions the (intermittently absent) broker itself.
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	var results []peerlab.FlowResult
	err = d.Run(func(s *peerlab.Session) error {
		// The injector is already armed: blackouts, partitions and loss
		// bursts fire on virtual time while these flows execute.
		var rerr error
		results, rerr = s.RunWorkload("")
		return rerr
	})
	if err != nil {
		fmt.Println(err)
		return
	}

	clean, recovered, failed, retries := 0, 0, 0, 0
	fmt.Println("swarm flows under control-plane faults:")
	for _, r := range results {
		retries += r.Retries
		switch {
		case r.Err != "":
			failed++
			fmt.Printf("  flow %2d  %-8s FAILED: %s\n", r.Flow.Index, r.Flow.Source, r.Err)
		case r.Degraded || r.Retries > 0:
			recovered++
			how := "retried"
			if r.Degraded {
				how = "degraded (cached directory)"
			}
			fmt.Printf("  flow %2d  %-8s -> %-8s %6.2fs  recovered: %s\n",
				r.Flow.Index, r.Flow.Source, r.Sink,
				r.Metrics.TransmissionTime().Seconds(), how)
		default:
			clean++
		}
	}
	fmt.Printf("\n%d flows clean, %d recovered (%d retries spent), %d failed\n",
		clean, recovered, retries, failed)

	// Output:
	// swarm flows under control-plane faults:
	//   flow 13  p007     -> p005       2.19s  recovered: retried
	//   flow 14  p005     -> p012       2.87s  recovered: retried
	//   flow 20  p014     -> p012       3.71s  recovered: degraded (cached directory)
	//   flow 21  p015     -> p012       6.83s  recovered: degraded (cached directory)
	//
	// 20 flows clean, 4 recovered (9 retries spent), 0 failed
}

// Sweep runs a parameter grid through the public API: a churn:24 swarm
// swept over transmission granularity and churn intensity at once. Each
// grid cell is one workload repetition on its own freshly deployed slice;
// cell seeds derive from the cell's axis coordinates, so the report is
// bit-identical at any parallelism and a cell's numbers would not change if
// more axis values joined the grid. The marginal summaries are the
// figure-ready view: the churn marginal below is the "selection quality vs
// churn rate" curve — failures and lease-lagged selections climb with
// intensity while stale selections (expired leases handed out) stay at
// zero, the broker's hard guarantee.
func Example_sweep() {
	report, err := peerlab.RunSweep(peerlab.Config{
		Seed:     2007,
		Scenario: "churn:24",
		// No Workload: the churn scenario hints swarm:24. The sweep spec
		// crosses granularity with churn intensity; rep=2 repeats each
		// grid point twice.
		Sweep: "granularity=1,4;churn=0.5,1,2;rep=2",
	}, 0, 0)
	if err != nil {
		fmt.Println(err)
		return
	}

	fmt.Printf("sweep %s — %d cells\n\n", report.Sweep, len(report.Cells))
	fmt.Println("cells (one workload repetition each):")
	for _, c := range report.Cells {
		s := c.Summary
		fmt.Printf("  parts=%d churn=×%-3g rep=%d  flows=%2d failed=%d lagged=%d stale=%d  mean-xmit=%6.2fs\n",
			c.Parts, c.ChurnRate, c.Rep,
			s.Flows, s.FailedFlows, s.SelectionsLagged, s.SelectionsStale,
			s.MeanTransmissionSeconds)
	}

	fmt.Println("\nmarginals (the plot-ready per-axis view):")
	for _, m := range report.Marginals {
		fmt.Printf("  %-11s = %-4s  cells=%d flows=%3d  failed=%5.2f%% lagged=%5.2f%% stale=%5.2f%%  mean-xmit=%6.2fs\n",
			m.Axis, m.Value, m.Cells, m.Flows,
			m.FailedPct, m.LaggedPct, m.StalePct, m.MeanTransmissionSeconds)
	}

	// Output:
	// sweep scenario=churn:24;granularity=1,4;churn=0.5,1,2;rep=2 — 12 cells
	//
	// cells (one workload repetition each):
	//   parts=1 churn=×0.5 rep=0  flows=24 failed=0 lagged=0 stale=0  mean-xmit=  3.09s
	//   parts=1 churn=×0.5 rep=1  flows=24 failed=1 lagged=1 stale=0  mean-xmit=  3.56s
	//   parts=1 churn=×1   rep=0  flows=24 failed=4 lagged=7 stale=0  mean-xmit=  5.04s
	//   parts=1 churn=×1   rep=1  flows=24 failed=2 lagged=4 stale=0  mean-xmit=  4.16s
	//   parts=1 churn=×2   rep=0  flows=24 failed=3 lagged=6 stale=0  mean-xmit=  3.06s
	//   parts=1 churn=×2   rep=1  flows=24 failed=2 lagged=6 stale=0  mean-xmit=  3.73s
	//   parts=4 churn=×0.5 rep=0  flows=24 failed=0 lagged=0 stale=0  mean-xmit=  3.85s
	//   parts=4 churn=×0.5 rep=1  flows=24 failed=0 lagged=0 stale=0  mean-xmit=  3.91s
	//   parts=4 churn=×1   rep=0  flows=24 failed=1 lagged=3 stale=0  mean-xmit=  3.10s
	//   parts=4 churn=×1   rep=1  flows=24 failed=4 lagged=6 stale=0  mean-xmit=  3.31s
	//   parts=4 churn=×2   rep=0  flows=24 failed=6 lagged=9 stale=0  mean-xmit=  2.47s
	//   parts=4 churn=×2   rep=1  flows=24 failed=6 lagged=10 stale=0  mean-xmit=  4.00s
	//
	// marginals (the plot-ready per-axis view):
	//   granularity = 1     cells=6 flows=144  failed= 8.33% lagged=16.67% stale= 0.00%  mean-xmit=  3.75s
	//   granularity = 4     cells=6 flows=144  failed=11.81% lagged=19.44% stale= 0.00%  mean-xmit=  3.47s
	//   churn       = 0.5   cells=4 flows= 96  failed= 1.04% lagged= 1.04% stale= 0.00%  mean-xmit=  3.60s
	//   churn       = 1     cells=4 flows= 96  failed=11.46% lagged=20.83% stale= 0.00%  mean-xmit=  3.88s
	//   churn       = 2     cells=4 flows= 96  failed=17.71% lagged=32.29% stale= 0.00%  mean-xmit=  3.33s
}

// TestExamplesCheckTheirOutput fails on an example in this file that go test
// would compile but never run: one without an output comment. The walkthroughs
// are the facade's checked behaviour only while each pins what it prints.
func TestExamplesCheckTheirOutput(t *testing.T) {
	f, err := parser.ParseFile(token.NewFileSet(), "example_test.go", nil, parser.ParseComments)
	if err != nil {
		t.Fatal(err)
	}
	examples := doc.Examples(f)
	if len(examples) < 8 {
		t.Errorf("example_test.go holds %d examples, want the eight walkthroughs", len(examples))
	}
	for _, ex := range examples {
		if ex.Output == "" && !ex.EmptyOutput {
			t.Errorf("Example%s has no output comment, so go test never runs it", ex.Name)
		}
	}
}
