package workload

import (
	"errors"
	"reflect"
	"strings"
	"testing"
	"time"

	"peerlab/internal/jxta"
	"peerlab/internal/transfer"
)

func TestParseDisseminate(t *testing.T) {
	// Canonical specs print back exactly (parse/print fixed point).
	for _, spec := range []string{
		"disseminate:8;pick=rarest;choke=tft",
		"disseminate:4;pick=sequential;choke=none",
		"stream:6;pick=sequential;choke=tft",
		"disseminate:8;pick=rarest;choke=tft;pieces=32",
	} {
		w, err := Parse(spec)
		if err != nil {
			t.Fatalf("Parse(%q): %v", spec, err)
		}
		if w.Name != spec {
			t.Fatalf("Parse(%q).Name = %q", spec, w.Name)
		}
		if w.Disseminate == nil {
			t.Fatalf("Parse(%q) has no dissemination config", spec)
		}
	}
	// Shorthand normalizes to the canonical print.
	w, err := Parse("disseminate:8")
	if err != nil {
		t.Fatal(err)
	}
	if w.Name != "disseminate:8;pick=rarest;choke=tft" {
		t.Fatalf("shorthand normalized to %q", w.Name)
	}
	if !Parse2(t, "stream:4").Disseminate.Stream {
		t.Fatal("stream spec did not set Stream")
	}
	for _, spec := range []string{
		"disseminate:0", "disseminate:x", "disseminate:4;pick=bogus",
		"disseminate:4;choke=bogus", "disseminate:4;pieces=0",
		"disseminate:4;pieces=9999", "disseminate:4;pick=rarest;pick=rarest",
		"disseminate:4;nope=1", "disseminate:4;pick", "swarm:4;pick=rarest",
		"allpairs:2;choke=tft", "controller-fanout;pick=rarest",
	} {
		if _, err := Parse(spec); err == nil {
			t.Fatalf("Parse(%q) accepted", spec)
		}
	}
}

// Parse2 is a test helper: Parse that fails the test on error.
func Parse2(t *testing.T, spec string) Workload {
	t.Helper()
	w, err := Parse(spec)
	if err != nil {
		t.Fatalf("Parse(%q): %v", spec, err)
	}
	return w
}

func TestWithPolicies(t *testing.T) {
	base := Parse2(t, "disseminate:4")
	over := base.WithPolicies("sequential", "none")
	if over.Disseminate.Pick != "sequential" || over.Disseminate.Choke != "none" {
		t.Fatalf("override not applied: %+v", over.Disseminate)
	}
	if base.Disseminate.Pick != "rarest" || base.Disseminate.Choke != "tft" {
		t.Fatalf("WithPolicies mutated the base: %+v", base.Disseminate)
	}
	// Identity override shares the workload unchanged (func fields defeat
	// DeepEqual, so compare the identifying parts).
	if id := base.WithPolicies("", ""); id.Disseminate != base.Disseminate || id.Name != base.Name {
		t.Fatal("identity WithPolicies changed the workload")
	}
	// Non-dissemination workloads are untouched.
	sw := Swarm(4)
	if got := sw.WithPolicies("sequential", "none"); got.Disseminate != nil || got.Name != sw.Name {
		t.Fatal("WithPolicies touched a non-dissemination workload")
	}
}

// dissemFlows builds a small, fast dissemination flow set over the rig's
// peers: a 2 MB payload in 8 pieces keeps the virtual runtime tiny.
func dissemFlows(t *testing.T, rig *execRig, d Dissemination) ([]Flow, Dissemination) {
	t.Helper()
	w := DisseminateWith(len(rig.peers), d)
	flows := w.Flows(rig.peers, 7)
	for i := range flows {
		flows[i].SizeBytes = 2 * transfer.Mb
		flows[i].Parts = 8
	}
	return flows, *w.Disseminate
}

func runDisseminate(t *testing.T, seed int64, n int, d Dissemination) (Outcome, *execRig) {
	t.Helper()
	rig := newExecRig(t, seed, n)
	flows, dd := dissemFlows(t, rig, d)
	var out Outcome
	var err error
	rig.net.Run(func() {
		rig.start(t)
		env := rig.env()
		env.Logf = t.Logf
		out, err = ExecuteDisseminate(env, dd, flows, seed)
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, rig
}

func TestExecuteDisseminateCompletes(t *testing.T) {
	out, rig := runDisseminate(t, 41, 4, Dissemination{Pick: "rarest", Choke: "tft"})
	if len(out.Results) != 4 {
		t.Fatalf("results = %d", len(out.Results))
	}
	reoriginated := 0
	for i, r := range out.Results {
		if r.Err != "" || r.Metrics.Failed {
			t.Fatalf("flow %d failed: %s", i, r.Err)
		}
		if r.Pieces != 8 {
			t.Fatalf("flow %d pieces = %d, want 8", i, r.Pieces)
		}
		if r.Metrics.TotalBytes != 2*transfer.Mb {
			t.Fatalf("flow %d bytes = %d", i, r.Metrics.TotalBytes)
		}
		if r.Metrics.Done.IsZero() || r.Metrics.PetitionDelay() < 0 {
			t.Fatalf("flow %d timing not fabricated: %+v", i, r.Metrics)
		}
		if r.ReOriginated {
			reoriginated++
		}
	}
	// The tentpole property: sinks became sources mid-run.
	if reoriginated == 0 {
		t.Fatal("no downloader re-originated a piece; swarm degenerated to fanout")
	}
	// The pair matrix accounts for every delivered byte.
	var pairTotal int64
	peerUploads := false
	for _, pb := range out.PairBytes {
		pairTotal += pb.Bytes
		if pb.From != "" {
			peerUploads = true
		}
	}
	if pairTotal != int64(4*2*transfer.Mb) {
		t.Fatalf("pair bytes = %d, want %d", pairTotal, 4*2*transfer.Mb)
	}
	if !peerUploads {
		t.Fatal("all bytes came from the origin; no peer-to-peer dissemination")
	}
	// Re-origination is credited through the origin-side stats path.
	var originated float64
	for _, name := range rig.peers {
		originated += rig.broker.Registry().Peer(name).Snapshot().BytesOriginated
	}
	if originated <= 0 {
		t.Fatal("peer re-origination not visible in the broker registry")
	}
}

// TestExecuteDisseminateDeterministic pins the engine's reproducibility —
// two identical rigs produce byte-identical outcomes, pair matrix included.
func TestExecuteDisseminateDeterministic(t *testing.T) {
	a, _ := runDisseminate(t, 23, 4, Dissemination{Pick: "rarest", Choke: "tft"})
	b, _ := runDisseminate(t, 23, 4, Dissemination{Pick: "rarest", Choke: "tft"})
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("identical runs diverged:\n%+v\nvs\n%+v", a, b)
	}
	// And the seed reaches the optimistic-unchoke draw.
	if chokeDraw(1, 0, 0) == chokeDraw(2, 0, 0) {
		t.Fatal("seed does not reach the choke draw")
	}
}

// TestStreamStallOrdering pins Rodrigues' observation at engine scale:
// in-order (sequential) piece picking stalls playback no more than
// rarest-first does, because playback consumes pieces in index order.
func TestStreamStallOrdering(t *testing.T) {
	stalls := func(pick string) int {
		out, _ := runDisseminate(t, 59, 4, Dissemination{Pick: pick, Choke: "tft", Stream: true})
		total := 0
		for _, r := range out.Results {
			total += r.Stalls
		}
		return total
	}
	seq, rare := stalls("sequential"), stalls("rarest")
	if seq > rare {
		t.Fatalf("sequential stalls %d > rarest stalls %d; playback model inverted", seq, rare)
	}
}

// TestRelaunchWarningDedupe: an exhausted send errors after Attempts tries
// and logs exactly one operator warning. Each flow reaches the budget at
// most once per engine run, so one warning per exhaustion is one per flow.
func TestRelaunchWarningDedupe(t *testing.T) {
	var warnings []string
	logf := func(format string, args ...any) {
		warnings = append(warnings, format)
	}
	tries := 0
	failing := func() error {
		tries++
		return transfer.ErrFailed
	}
	sleep := func(time.Duration) {}
	f := transfer.File{Name: "x", Size: 10}
	var m transfer.Metrics
	err := sendRelaunched(logf, sleep, 0, failing, "src", "dst", &f, "flow 0", &m)
	if !errors.Is(err, transfer.ErrFailed) {
		t.Fatalf("exhausted send returned %v, want transfer.ErrFailed", err)
	}
	if tries != Attempts || m.Attempts != Attempts {
		t.Fatalf("exhausted send tried %d times, reported %d, want %d", tries, m.Attempts, Attempts)
	}
	if len(warnings) != 1 {
		t.Fatalf("exhaustion logged %d warnings, want 1", len(warnings))
	}
}

// TestDisseminateGenerators pins the generator shapes.
func TestDisseminateGenerators(t *testing.T) {
	w := DisseminateWith(6, Dissemination{})
	flows := w.Flows(labels(9), 3)
	if len(flows) != 6 {
		t.Fatalf("flows = %d, want 6", len(flows))
	}
	for i, f := range flows {
		if f.Source != "" || f.Sink == "" || f.Model != "" {
			t.Fatalf("flow %d = %+v, want fixed-sink downloader", i, f)
		}
		if f.Parts != DefaultPieces || f.SizeBytes != DefaultDisseminateBytes {
			t.Fatalf("flow %d defaults wrong: %+v", i, f)
		}
	}
	// Clamped to the slice.
	if got := len(DisseminateWith(10, Dissemination{}).Flows(labels(3), 3)); got != 3 {
		t.Fatalf("clamped disseminate = %d flows, want 3", got)
	}
	if name := DisseminateWith(4, Dissemination{Stream: true}).Name; !strings.HasPrefix(name, "stream:4") {
		t.Fatalf("stream name = %q", name)
	}
	if w, err := Parse("stream:4"); err != nil || !w.Disseminate.Stream {
		t.Fatalf("stream:4 parsed without Stream set: %v", err)
	}
	// Registered() advertises the new families.
	reg := strings.Join(Registered(), " ")
	if !strings.Contains(reg, "disseminate:N") || !strings.Contains(reg, "stream:N") {
		t.Fatalf("Registered() = %q", reg)
	}
}

// TestReadDirectoryBoundsPieceIndex is the regression test for the unbounded
// index accumulator: 2^64 wrapped round to 0 and marked piece 0 held by a
// peer that never had it. Fields that are not plain decimal indices below the
// piece count name nothing.
func TestReadDirectoryBoundsPieceIndex(t *testing.T) {
	s := newSwarm(2, 8)
	adv := jxta.Advertisement{Kind: jxta.AdvPeer, Name: "a", Attrs: []jxta.Attr{
		{Key: jxta.AttrPieces, Value: "18446744073709551616,3,+1,-0,8,1024,36893488147419103232,x,,007"},
		{Key: jxta.AttrUnchoked, Value: "b,,nobody"},
	}}
	s.readDirectory([]jxta.Advertisement{adv}, "ctl", map[string]int{"a": 0, "b": 1})
	if got, want := s.advHas[1*s.pw], uint64(1<<3|1<<7); got != want {
		t.Fatalf("advertised pieces = %#b, want %#b (pieces 3 and 7 only)", got, want)
	}
	if !s.advertised[1] || s.advertised[0] || s.advertised[2] {
		t.Fatalf("advertised = %v, want the one named holder", s.advertised)
	}
	if got := s.grantedBy[1*s.rw]; got != 1<<1 {
		t.Fatalf("downloader b is granted by rows %#b, want row 1 alone", got)
	}
}
