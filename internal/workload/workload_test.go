package workload

import (
	"errors"
	"fmt"
	"log"
	"reflect"
	"strings"
	"testing"
	"time"

	"peerlab/internal/overlay"
	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/transfer"
)

func labels(n int) []string {
	out := make([]string, n)
	for i := range out {
		out[i] = string(rune('a' + i))
	}
	return out
}

func TestParse(t *testing.T) {
	for _, spec := range []string{"controller-fanout", "swarm:12", "allpairs:3"} {
		w, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if w.Name != spec {
			t.Fatalf("Parse(%q).Name = %q", spec, w.Name)
		}
	}
	for _, spec := range []string{"", "swarm", "swarm:0", "swarm:x", "nope:3", "bogus"} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
	}
}

// TestWorkloadsArePure pins the layer's purity rule: a workload's flow set
// is a function of (labels, seed) alone.
func TestWorkloadsArePure(t *testing.T) {
	ls := labels(9)
	for _, w := range []Workload{ControllerFanout(), Swarm(17), AllPairs(4)} {
		a, b := w.Flows(ls, 42), w.Flows(ls, 42)
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("%s: same (labels, seed) produced different flows", w.Name)
		}
	}
	// And the swarm's draws do depend on the seed.
	sw := Swarm(17)
	if reflect.DeepEqual(sw.Flows(ls, 1), sw.Flows(ls, 2)) {
		t.Fatal("swarm flows identical across seeds; draws look unseeded")
	}
}

func TestControllerFanoutShape(t *testing.T) {
	flows := ControllerFanout().Flows(labels(5), 7)
	if len(flows) != 5 {
		t.Fatalf("flows = %d, want 5", len(flows))
	}
	for i, f := range flows {
		if f.Source != "" || f.Sink == "" || f.Model != "" {
			t.Fatalf("flow %d = %+v, want controller-sourced fixed sink", i, f)
		}
		if f.Index != i || f.SizeBytes <= 0 || f.Parts <= 0 {
			t.Fatalf("flow %d malformed: %+v", i, f)
		}
	}
}

func TestSwarmShape(t *testing.T) {
	ls := labels(6)
	known := make(map[string]bool)
	for _, l := range ls {
		known[l] = true
	}
	flows := Swarm(20).Flows(ls, 99)
	if len(flows) != 20 {
		t.Fatalf("flows = %d, want 20", len(flows))
	}
	for i, f := range flows {
		if !known[f.Source] {
			t.Fatalf("flow %d source %q not a slice label", i, f.Source)
		}
		if f.Sink != "" || f.Model == "" {
			t.Fatalf("flow %d = %+v, want model-selected sink", i, f)
		}
	}
}

func TestAllPairsShape(t *testing.T) {
	flows := AllPairs(4).Flows(labels(9), 3)
	if len(flows) != 4*3 {
		t.Fatalf("flows = %d, want 12", len(flows))
	}
	seen := make(map[string]bool)
	for _, f := range flows {
		if f.Source == f.Sink {
			t.Fatalf("self-flow: %+v", f)
		}
		key := f.Source + ">" + f.Sink
		if seen[key] {
			t.Fatalf("duplicate pair %s", key)
		}
		seen[key] = true
	}
	// Clamped when the slice is smaller than n.
	if got := len(AllPairs(10).Flows(labels(3), 3)); got != 6 {
		t.Fatalf("clamped allpairs = %d flows, want 6", got)
	}
}

func TestFlowSeedDisperses(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 100; i++ {
		s := FlowSeed(2007, i)
		if seen[s] {
			t.Fatalf("FlowSeed collision at %d", i)
		}
		seen[s] = true
	}
	if FlowSeed(1, 0) == FlowSeed(2, 0) {
		t.Fatal("cell seed does not reach flow seed")
	}
}

// --- end-to-end execution over simnet ---

func execProfile() simnet.Profile {
	p := simnet.DefaultProfile()
	p.Bandwidth = 2e6
	p.LatencyOneWay = 15 * time.Millisecond
	return p
}

// execRig is a control node plus n peers with a broker and started clients.
type execRig struct {
	net     *simnet.Network
	nodes   map[string]*simnet.Node // control's and every peer's
	broker  *overlay.Broker
	control *overlay.Client
	clients map[string]*overlay.Client
	peers   []string
}

func newExecRig(t *testing.T, seed int64, n int) *execRig {
	t.Helper()
	net := simnet.New(seed)
	ctlNode := net.MustAddNode("control", execProfile())
	broker, err := overlay.NewBroker(ctlNode, overlay.BrokerConfig{AdvTTL: 24 * time.Hour, Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rig := &execRig{net: net, nodes: map[string]*simnet.Node{"control": ctlNode}, broker: broker, clients: make(map[string]*overlay.Client)}
	rig.control = overlay.NewClient(ctlNode, broker.Addr(), overlay.ClientConfig{CPUScore: 2})
	for i := 0; i < n; i++ {
		name := string(rune('a'+i)) + "1"
		node := net.MustAddNode(name, execProfile())
		rig.nodes[name] = node
		rig.clients[name] = overlay.NewClient(node, broker.Addr(), overlay.ClientConfig{})
		rig.peers = append(rig.peers, name)
	}
	return rig
}

func (r *execRig) env() Env {
	return Env{
		Host:         r.nodes["control"],
		Control:      r.control,
		Clients:      r.clients,
		ExcludeSinks: []string{"control"},
	}
}

func (r *execRig) start(t *testing.T) {
	if err := r.control.Start(); err != nil {
		t.Errorf("control start: %v", err)
	}
	for _, name := range r.peers { // deterministic boot order
		c := r.clients[name]
		if err := c.Start(); err != nil {
			t.Errorf("start %s: %v", name, err)
		}
		if err := c.ReportStats(); err != nil {
			t.Errorf("report %s: %v", name, err)
		}
	}
}

// TestStoppedSourceFailsOnce: a source that departed fails its transfer on
// the first attempt. Its own closed mux is not a transient transfer failure,
// so nothing relaunches against it, nothing is logged as an exhausted
// budget, and the record carries the attempt count alone.
func TestStoppedSourceFailsOnce(t *testing.T) {
	rig := newExecRig(t, 5, 2)
	var warnings []string
	logf := func(format string, args ...any) { warnings = append(warnings, format) }
	var m transfer.Metrics
	var err error
	rig.net.Run(func() {
		rig.start(t)
		src := rig.clients["a1"]
		src.Stop()
		m, err = SendRelaunched(logf, rig.nodes["a1"].Sleep, time.Second, src, "b1",
			transfer.NewVirtualFile("f", transfer.Mb, 1), 1, "flow 0 (a1 -> b1)")
	})
	if err == nil || errors.Is(err, transfer.ErrFailed) || !errors.Is(err, pipe.ErrClosed) {
		t.Fatalf("stopped source: err = %v, want pipe.ErrClosed and not transfer.ErrFailed", err)
	}
	if !strings.HasPrefix(err.Error(), "overlay: client stopped: ") {
		t.Fatalf("stopped source: err = %q, want it to name the stopped client", err)
	}
	if !reflect.DeepEqual(m, transfer.Metrics{Attempts: 1}) {
		t.Fatalf("stopped source: metrics = %+v, want 1 attempt and nothing else", m)
	}
	if len(warnings) != 0 {
		t.Fatalf("stopped source logged %d relaunch warnings, want none", len(warnings))
	}
}

// TestExecuteMixedFlows drives all three source/sink resolution modes in one
// run: controller-sourced fixed sink, peer-sourced fixed sink, and a
// peer-sourced model-selected sink.
func TestExecuteMixedFlows(t *testing.T) {
	rig := newExecRig(t, 31, 3)
	flows := []Flow{
		{Index: 0, Sink: "a1", FileName: "f0", SizeBytes: transfer.Mb, Parts: 2},
		{Index: 1, Source: "a1", Sink: "b1", FileName: "f1", SizeBytes: transfer.Mb, Parts: 4},
		{Index: 2, Source: "b1", Model: "economic", FileName: "f2", SizeBytes: transfer.Mb, Parts: 1},
	}
	var results []Result
	var err error
	rig.net.Run(func() {
		rig.start(t)
		results, err = Execute(rig.env(), flows, 77)
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 3 {
		t.Fatalf("results = %d", len(results))
	}
	for i, r := range results {
		if r.Flow.Index != i {
			t.Fatalf("result %d carries flow %d: not positional", i, r.Flow.Index)
		}
		if r.Metrics.Attempts != 1 {
			t.Fatalf("flow %d attempts = %d, want 1", i, r.Metrics.Attempts)
		}
		if r.Metrics.TransmissionTime() <= 0 {
			t.Fatalf("flow %d has no transmission time", i)
		}
	}
	if results[0].Sink != "a1" || results[1].Sink != "b1" {
		t.Fatalf("fixed sinks = %q, %q", results[0].Sink, results[1].Sink)
	}
	// The model-selected sink is a real peer, not the source or control.
	if s := results[2].Sink; s == "b1" || s == "control" || rig.clients[s] == nil {
		t.Fatalf("selected sink = %q", s)
	}
	// Origin-side attribution reached the broker's registry.
	snapA := rig.broker.Registry().Peer("a1").Snapshot()
	if snapA.TransfersOriginated != 1 || snapA.BytesOriginated != float64(transfer.Mb) {
		t.Fatalf("a1 origination = %+v", snapA)
	}
	snapCtl := rig.broker.Registry().Peer("control").Snapshot()
	if snapCtl.TransfersOriginated != 1 {
		t.Fatalf("control origination = %v, want 1", snapCtl.TransfersOriginated)
	}
}

// TestExecuteIsSeedDeterministic pins the executor's reproducibility: same
// seed, same rig, same flow metrics.
func TestExecuteIsSeedDeterministic(t *testing.T) {
	run := func() []Result {
		rig := newExecRig(t, 13, 3)
		flows := Swarm(5).Flows(rig.peers, 5)
		var results []Result
		var err error
		rig.net.Run(func() {
			rig.start(t)
			results, err = Execute(rig.env(), flows, 5)
		})
		if err != nil {
			t.Fatal(err)
		}
		return results
	}
	a, b := run(), run()
	for i := range a {
		if a[i].Sink != b[i].Sink ||
			a[i].Metrics.TransmissionTime() != b[i].Metrics.TransmissionTime() {
			t.Fatalf("flow %d diverged across identical runs: %v/%v vs %v/%v",
				i, a[i].Sink, a[i].Metrics.TransmissionTime(), b[i].Sink, b[i].Metrics.TransmissionTime())
		}
	}
}

func TestExecuteUnknownSourceFails(t *testing.T) {
	rig := newExecRig(t, 17, 2)
	var err error
	rig.net.Run(func() {
		rig.start(t)
		_, err = Execute(rig.env(),
			[]Flow{{Index: 0, Source: "ghost", Sink: "a1", FileName: "f", SizeBytes: 1000, Parts: 1}}, 1)
	})
	if err == nil || !strings.Contains(err.Error(), "ghost") {
		t.Fatalf("err = %v, want unknown-source failure", err)
	}
}

// TestEnvLogfRouting pins the warning-routing fix: an Env with its own
// logger receives warnings there — never on the process-wide default logger,
// whose interleaved output is garbage when parallel sweep cells warn at
// once. The default-logger fallback (Logf nil) stays for single interactive
// runs.
func TestEnvLogfRouting(t *testing.T) {
	var got []string
	e := Env{Logf: func(format string, args ...any) {
		got = append(got, fmt.Sprintf(format, args...))
	}}
	e.logf("flow %d gave up", 7)
	if len(got) != 1 || got[0] != "flow 7 gave up" {
		t.Fatalf("supplied logger got %q", got)
	}

	// The nil fallback must keep working (and not panic); capture the
	// default logger's output to keep the test silent.
	var buf strings.Builder
	prev := log.Writer()
	prevFlags := log.Flags()
	log.SetOutput(&buf)
	log.SetFlags(0)
	defer func() {
		log.SetOutput(prev)
		log.SetFlags(prevFlags)
	}()
	Env{}.logf("default %s", "route")
	if buf.String() != "default route\n" {
		t.Fatalf("default logger got %q", buf.String())
	}
}

// TestWorkloadWith pins the sweep-axis override semantics: a forced model
// clears fixed sinks (the axis decides how sinks are chosen), granularity
// and size replace the flows' own, and the all-zero override is the
// identity — same flows, byte for byte.
func TestWorkloadWith(t *testing.T) {
	labels := []string{"a", "b", "c"}
	base := ControllerFanout()
	if got := base.With("", 0, 0); !reflect.DeepEqual(got.Flows(labels, 5), base.Flows(labels, 5)) {
		t.Fatal("identity override changed the flows")
	}
	over := base.With("economic", 16, 5*transfer.Mb)
	if over.Name != base.Name {
		t.Fatalf("override renamed the workload: %q", over.Name)
	}
	flows := over.Flows(labels, 5)
	if len(flows) != len(labels) {
		t.Fatalf("flows = %d", len(flows))
	}
	for i, f := range flows {
		if f.Sink != "" || f.Model != "economic" {
			t.Fatalf("flow %d kept its fixed sink: %+v", i, f)
		}
		if f.Parts != 16 || f.SizeBytes != 5*transfer.Mb {
			t.Fatalf("flow %d overrides not applied: %+v", i, f)
		}
	}
	// The original workload is untouched (With wraps, it must not mutate).
	for i, f := range base.Flows(labels, 5) {
		if f.Sink == "" || f.Model != "" || f.Parts != 4 {
			t.Fatalf("With mutated the base workload: flow %d = %+v", i, f)
		}
	}
}
