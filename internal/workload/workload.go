package workload

import (
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"

	"peerlab/internal/scenario"
	"peerlab/internal/transfer"
	"peerlab/internal/transport"
)

// Flow names one transfer: who sends, to whom (fixed sink or a selection
// model the source consults at run time), and what payload.
type Flow struct {
	// Index is the flow's position in its workload; payload seeds and
	// result ordering key off it.
	Index int `json:"index"`
	// Source is the originating peer's label; "" names the control node.
	Source string `json:"source,omitempty"`
	// Sink is the fixed destination label. Empty means the source asks the
	// broker's selection service to pick one, using Model.
	Sink string `json:"sink,omitempty"`
	// Model is the selection model the source invokes when Sink is empty
	// ("economic", "same-priority", ...).
	Model string `json:"model,omitempty"`
	// FileName labels the payload.
	FileName string `json:"file"`
	// SizeBytes is the payload size.
	SizeBytes int `json:"bytes"`
	// Parts is the transmission granularity (1 = whole file).
	Parts int `json:"parts"`
}

// Workload is a named, deterministic flow-set generator.
type Workload struct {
	// Name identifies the workload ("controller-fanout", "swarm:64", ...).
	Name string
	// Flows returns the flow set for a slice's measured-peer labels and a
	// seed. It must be a pure function of (labels, seed): the experiment
	// runner calls it once per cell and relies on identical output at any
	// worker count.
	Flows func(labels []string, seed int64) []Flow
	// Disseminate, when non-nil, marks this as a piece-level dissemination
	// workload: the flow set names the downloaders, and the multi-round
	// engine (ExecuteDisseminate) moves the payload piece by piece under
	// these policies instead of the single-round executor.
	Disseminate *Dissemination
}

// Dissemination parameterizes the piece-level workload family: one shared
// payload is cut into pieces, every downloader starts empty, and any peer
// holding pieces re-originates them — the sink-becomes-source behavior the
// single-round workloads cannot express.
type Dissemination struct {
	// Pieces is the piece count the payload splits into (DefaultPieces when
	// zero). The sweep's granularity axis overrides it per flow.
	Pieces int
	// Pick names the piece-picking policy: "rarest" (fewest advertised
	// holders first, ties broken by a seed-pure permutation) or
	// "sequential" (lowest index first).
	Pick string
	// Choke names the reciprocity policy: "tft" (tit-for-tat — serve the
	// fastest-delivering interested peers, plus one deterministic
	// optimistic unchoke) or "none" (serve every interested peer).
	Choke string
	// Stream scores arrivals against per-piece playback deadlines and
	// counts stalls — the on-demand streaming mode.
	Stream bool
}

// Dissemination grammar bounds and defaults.
const (
	// DefaultPieces is the piece count when the spec names none.
	DefaultPieces = 16
	// DefaultDisseminateBytes is the shared payload size.
	DefaultDisseminateBytes = 8 * transfer.Mb
)

// Picks and Chokes list the accepted policy names for the pick= and choke=
// options (and the sweep axes of the same names).
var (
	Picks  = []string{"rarest", "sequential"}
	Chokes = []string{"tft", "none"}
)

// withDefaults fills unset policy fields.
func (d Dissemination) withDefaults() Dissemination {
	if d.Pieces <= 0 {
		d.Pieces = DefaultPieces
	}
	if d.Pick == "" {
		d.Pick = "rarest"
	}
	if d.Choke == "" {
		d.Choke = "tft"
	}
	return d
}

// dissemSpec prints the canonical spec for a dissemination workload; Parse
// of the result round-trips to the same string (the fixed point the fuzz
// harness pins). Policies always print; pieces only when non-default.
func dissemSpec(n int, d Dissemination) string {
	kind := "disseminate"
	if d.Stream {
		kind = "stream"
	}
	s := fmt.Sprintf("%s:%d;pick=%s;choke=%s", kind, n, d.Pick, d.Choke)
	if d.Pieces != DefaultPieces {
		s += fmt.Sprintf(";pieces=%d", d.Pieces)
	}
	return s
}

// IsZero reports whether the workload is unset.
func (w Workload) IsZero() bool { return w.Flows == nil }

// With returns w with every generated flow rewritten by the non-zero
// overrides — the sweep engine's model/granularity/size axes applied at the
// flow level. model != "" forces every flow to resolve its sink through that
// selection model (a fixed sink is cleared: the axis means "how are sinks
// chosen", and a flow with both set would never consult the model);
// parts > 0 sets the transmission granularity; sizeBytes > 0 the payload
// size. All-zero overrides return w unchanged, so the no-override sweep cell
// runs the workload byte-identically to RunWorkload.
func (w Workload) With(model string, parts, sizeBytes int) Workload {
	if model == "" && parts <= 0 && sizeBytes <= 0 {
		return w
	}
	inner := w.Flows
	w.Flows = func(labels []string, seed int64) []Flow {
		flows := append([]Flow(nil), inner(labels, seed)...)
		for i := range flows {
			if model != "" {
				flows[i].Model = model
				flows[i].Sink = ""
			}
			if parts > 0 {
				flows[i].Parts = parts
			}
			if sizeBytes > 0 {
				flows[i].SizeBytes = sizeBytes
			}
		}
		return flows
	}
	return w
}

// WithPolicies returns w with its dissemination policies overridden — the
// sweep engine's pick=/choke= axes. Empty overrides and non-dissemination
// workloads return w unchanged (the sweep validates axis applicability
// before expanding cells).
func (w Workload) WithPolicies(pick, choke string) Workload {
	if w.Disseminate == nil || (pick == "" && choke == "") {
		return w
	}
	d := *w.Disseminate
	if pick != "" {
		d.Pick = pick
	}
	if choke != "" {
		d.Choke = choke
	}
	w.Disseminate = &d
	return w
}

// FlowSeed derives flow index i's payload seed from a cell seed via
// SplitMix64 — the same derivation primitive the experiment stack uses for
// cell seeds, shared so the layers cannot drift apart.
func FlowSeed(seed int64, i int) int64 {
	return int64(scenario.Mix64(scenario.Mix64(uint64(seed)) ^ uint64(i+1)))
}

// flowRand returns flow i's deterministic draw stream.
func flowRand(seed int64, i int) *rand.Rand {
	return transport.NewRand(FlowSeed(seed, i))
}

// ControllerFanout is the paper's traffic shape as data: the control node
// originates one transfer to every measured peer.
func ControllerFanout() Workload {
	return Workload{
		Name: "controller-fanout",
		Flows: func(labels []string, seed int64) []Flow {
			return toEach(labels, func(i int) string { return fmt.Sprintf("fanout-%04d", i) }, transfer.Mb, 4)
		},
	}
}

// toEach is one flow from the control node to each label, in label order.
func toEach(labels []string, file func(i int) string, size, parts int) []Flow {
	flows := make([]Flow, len(labels))
	for i, l := range labels {
		flows[i] = Flow{Index: i, Sink: l, FileName: file(i), SizeBytes: size, Parts: parts}
	}
	return flows
}

// swarmModels is the selection lineup swarm sources rotate through; both are
// broker-registered deterministic rankers.
var swarmModels = []string{"economic", "same-priority"}

// Swarm drives n peer↔peer flows: each flow's source is a seed-drawn peer
// that calls the broker's selection service itself — concurrently with every
// other source — to pick its sink before transmitting. This is the workload
// that exercises the sharded selection path under concurrent selectors.
func Swarm(n int) Workload {
	return Workload{
		Name: fmt.Sprintf("swarm:%d", n),
		Flows: func(labels []string, seed int64) []Flow {
			flows := make([]Flow, n)
			for i := range flows {
				r := flowRand(seed, i)
				flows[i] = Flow{
					Index:     i,
					Source:    labels[r.Intn(len(labels))],
					Model:     swarmModels[i%len(swarmModels)],
					FileName:  fmt.Sprintf("swarm-%04d", i),
					SizeBytes: (1 + r.Intn(4)) * transfer.Mb,
					Parts:     4,
				}
			}
			return flows
		},
	}
}

// AllPairs drives one flow for every ordered pair among the first n measured
// peers — the densest peer↔peer pattern, with fixed sinks (no selection).
func AllPairs(n int) Workload {
	return Workload{
		Name: fmt.Sprintf("allpairs:%d", n),
		Flows: func(labels []string, seed int64) []Flow {
			labels = labels[:min(n, len(labels))]
			var flows []Flow
			for _, src := range labels {
				for _, dst := range labels {
					if src == dst {
						continue
					}
					i := len(flows)
					flows = append(flows, Flow{
						Index:     i,
						Source:    src,
						Sink:      dst,
						FileName:  fmt.Sprintf("pair-%04d", i),
						SizeBytes: transfer.Mb,
						Parts:     4,
					})
				}
			}
			return flows
		},
	}
}

// DisseminateWith is the piece-level dissemination workload over the first
// n measured peers under policies d: the control node originates one shared
// payload, every peer is a downloader, and peers re-originate the pieces
// they hold. With d.Stream, piece arrivals are scored against playback
// deadlines and late pieces count as stalls, ranking pick policies the way
// Rodrigues' on-demand streaming study does. Each flow is one downloader
// with a fixed sink; pieces flow peer-to-peer, so Source stays empty (the
// control node seeds the swarm).
func DisseminateWith(n int, d Dissemination) Workload {
	d = d.withDefaults()
	return Workload{
		Name:        dissemSpec(n, d),
		Disseminate: &d,
		Flows: func(labels []string, seed int64) []Flow {
			file := func(int) string { return "dissem-payload" }
			return toEach(labels[:min(n, len(labels))], file, DefaultDisseminateBytes, d.Pieces)
		},
	}
}

// Registered returns the workload specs Parse accepts.
func Registered() []string {
	return []string{"controller-fanout", "swarm:N", "allpairs:N", "disseminate:N", "stream:N"}
}

// MaxCount bounds the N a generator spec accepts — a flow count beyond any
// simulable session fails at parse time, before the generator materializes
// it (mirroring scenario.MaxPeers).
const MaxCount = 1_000_000

// Parse resolves a workload spec: "controller-fanout", "swarm:N",
// "allpairs:N", or the dissemination family "disseminate:N" / "stream:N"
// with optional ";"-separated options pick=rarest|sequential,
// choke=tft|none, pieces=K (1 ≤ N ≤ MaxCount, 1 ≤ K ≤ transfer.MaxPieces). The
// dissemination workloads print back a canonical Name (policies always
// spelled out) that re-parses to itself.
func Parse(spec string) (Workload, error) {
	head, rest, hasOpts := strings.Cut(spec, ";")
	var w Workload
	if kind, arg, ok := strings.Cut(head, ":"); ok {
		n, err := strconv.Atoi(arg)
		if err != nil || n < 1 || n > MaxCount {
			return Workload{}, fmt.Errorf("workload: %q: count must be an integer in [1, %d]", spec, MaxCount)
		}
		switch kind {
		case "disseminate", "stream":
			var opts []string
			if hasOpts {
				opts = strings.Split(rest, ";")
			}
			d, err := parseDissemOptions(spec, opts)
			if err != nil {
				return Workload{}, err
			}
			d.Stream = kind == "stream"
			return DisseminateWith(n, d), nil
		case "swarm":
			w = Swarm(n)
		case "allpairs":
			w = AllPairs(n)
		default:
			return Workload{}, fmt.Errorf("workload: unknown generator %q (want %s)",
				kind, strings.Join(Registered(), ", "))
		}
	} else if head == "controller-fanout" {
		w = ControllerFanout()
	} else {
		return Workload{}, fmt.Errorf("workload: unknown workload %q (want %s)",
			spec, strings.Join(Registered(), ", "))
	}
	if hasOpts {
		return Workload{}, fmt.Errorf("workload: %q: options are only valid for disseminate:N / stream:N", spec)
	}
	return w, nil
}

// parseDissemOptions folds the ";"-separated key=value options of a
// dissemination spec; unknown, malformed, or repeated options fail.
func parseDissemOptions(spec string, opts []string) (Dissemination, error) {
	var d Dissemination
	seen := make(map[string]bool, len(opts))
	for _, o := range opts {
		k, v, ok := strings.Cut(o, "=")
		if !ok || k == "" || v == "" {
			return Dissemination{}, fmt.Errorf("workload: %q: option %q: want key=value", spec, o)
		}
		if seen[k] {
			return Dissemination{}, fmt.Errorf("workload: %q: option %q given twice", spec, k)
		}
		seen[k] = true
		switch k {
		case "pick", "choke":
			policy, names := &d.Pick, Picks
			if k == "choke" {
				policy, names = &d.Choke, Chokes
			}
			if !slices.Contains(names, v) {
				return Dissemination{}, fmt.Errorf("workload: %q: %s=%q (want %s)", spec, k, v, strings.Join(names, " or "))
			}
			*policy = v
		case "pieces":
			n, err := strconv.Atoi(v)
			if err != nil || n < 1 || n > transfer.MaxPieces {
				return Dissemination{}, fmt.Errorf("workload: %q: pieces must be an integer in [1, %d]", spec, transfer.MaxPieces)
			}
			d.Pieces = n
		default:
			return Dissemination{}, fmt.Errorf("workload: %q: unknown option %q (want pick, choke, pieces)", spec, k)
		}
	}
	return d, nil
}
