package overlay

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"
	"time"

	"peerlab/internal/pipe"
	"peerlab/internal/simnet"
	"peerlab/internal/stats"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// drawnReport is one statistics report as a program draws it: a transfer
// report (kind mtReportTransfer), a task report (ok is whether the task ran,
// spu its seconds per work unit) or a message report.
type drawnReport struct {
	kind                    byte
	peer                    string
	ok, cancelled, accepted bool
	bytes                   int
	dur, delay              time.Duration
	spu                     float64
}

// frame spells the report's frame out field by field, so the oracle below
// does not lean on the client's encoders.
func (r drawnReport) frame() []byte {
	e := wire.NewEncoder(64)
	e.Byte(r.kind)
	e.String(r.peer)
	switch r.kind {
	case mtReportTransfer:
		e.Bool(r.ok)
		e.Bool(r.cancelled)
		e.Int(r.bytes)
		e.Duration(r.dur)
		e.Duration(r.delay)
	case mtReportTask:
		e.Bool(r.accepted)
		e.Bool(r.ok)
		e.Float64(r.spu)
	case mtReportMessage:
		e.Bool(r.ok)
	}
	return e.Bytes()
}

// refReport is the broker's report path written the plain way: the frame
// decoded field by field with every name copied out of it, then the
// records updated. It reports whether the frame was well formed.
func refReport(reg *stats.Registry, from string, frame []byte) bool {
	kind, d, err := wire.Tag(frame)
	if err != nil {
		return false
	}
	rep := drawnReport{kind: kind, peer: strings.Clone(string(d.BytesField()))}
	switch kind {
	case mtReportTransfer:
		rep.ok, rep.cancelled, rep.bytes, rep.dur, rep.delay = d.Bool(), d.Bool(), d.Int(), d.Duration(), d.Duration()
	case mtReportTask:
		rep.accepted, rep.ok, rep.spu = d.Bool(), d.Bool(), d.Float64()
	case mtReportMessage:
		rep.ok = d.Bool()
	}
	if d.Finish() != nil {
		return false
	}
	ps := reg.Peer(rep.peer)
	switch kind {
	case mtReportTransfer:
		ps.RecordFileSent(rep.ok)
		ps.RecordTransferOutcome(rep.cancelled)
		if rep.ok {
			ps.ObserveTransferRate(rep.bytes, rep.dur)
		}
		if rep.delay > 0 {
			ps.ObservePetitionDelay(rep.delay)
		}
		if from != "" {
			reg.Peer(from).RecordTransferOriginated(rep.ok, rep.bytes)
		}
	case mtReportTask:
		ps.RecordTaskOffer(rep.accepted)
		if rep.accepted {
			if math.IsNaN(rep.spu) || math.IsInf(rep.spu, 0) {
				rep.spu = 0
			}
			ps.RecordTaskExecution(rep.ok, rep.spu)
		}
	case mtReportMessage:
		ps.RecordMessage(rep.ok)
	}
	return true
}

// checkTransferReportProgram hands a seeded run of statistics reports to a
// bare broker's handlers and to refReport: mostly transfer reports, each a
// success, a cancellation or a refusal, and task and message reports. The
// peers named are registered, unregistered and the empty name. A truncated
// frame or one with a trailing byte must get no ack and change no
// statistics. After every report both registries must hold the same
// records; after the run, every frame's bytes are overwritten and the
// broker's records must not move, so no stored name shares a frame's bytes.
func checkTransferReportProgram(seed int64, steps int) error {
	rng := rand.New(rand.NewSource(seed))
	host := simnet.New(seed).MustAddNode("broker0", instantProfile())
	b, err := NewBroker(host, BrokerConfig{Shards: 2, CacheLimit: 64})
	if err != nil {
		return err
	}
	defer b.Close()
	ref := stats.NewRegistry(host.Now)
	probe := simnet.New(seed).MustAddNode("probe", instantProfile())
	ep, err := probe.Endpoint(ServiceClient)
	if err != nil {
		return err
	}
	mux := pipe.NewMux(probe, ep, pipe.Options{})
	defer mux.Close()
	var conns []pipe.Conn // the reporting conns: a registered origin and a stranger
	for _, remote := range []string{"p1", "origin"} {
		conn, err := mux.Dial(transport.MakeAddr(remote, ServiceBroker))
		if err != nil {
			return err
		}
		conns = append(conns, conn)
	}
	registered := []string{"p1", "p2", "p10"}
	for _, name := range registered {
		b.registry.Peer(name)
		ref.Peer(name)
	}
	sinks := append(slices.Clone(registered), "sc7", "new0", "new1", "a-much-longer-peer-name.planetlab.example.org", "")
	records := func(reg *stats.Registry) string { return fmt.Sprintf("%v\n%+v", reg.Names(), reg.Snapshots()) }
	var handed [][]byte
	for step := 1; step <= steps; step++ {
		rep := drawnReport{
			kind:  [...]byte{mtReportTransfer, mtReportTransfer, mtReportTask, mtReportMessage}[rng.Intn(4)],
			peer:  sinks[rng.Intn(len(sinks))],
			bytes: rng.Intn(1 << 24),
			dur:   time.Duration(rng.Intn(3)) * time.Duration(rng.Int63n(int64(time.Minute))),
			spu:   [...]float64{0, 0.5, -1, math.Inf(1), math.NaN(), 3e-3}[rng.Intn(6)],
		}
		switch outcome := rng.Intn(3); outcome {
		case 0:
			rep.ok, rep.accepted = true, true
		case 1:
			rep.cancelled, rep.accepted = true, true
		}
		if rng.Intn(2) == 0 {
			rep.delay = time.Duration(rng.Int63n(int64(time.Second))) - time.Second/4
		}
		frame := rep.frame()
		bad := ""
		switch rng.Intn(8) {
		case 0:
			frame, bad = frame[:1+rng.Intn(len(frame)-1)], "truncated"
		case 1:
			frame, bad = append(frame, 0), "trailing byte"
		}
		conn := conns[rng.Intn(len(conns))]
		what := fmt.Sprintf("seed %d, step %d: %+v from %s (%s)", seed, step, rep, conn.Remote().Node(), bad)
		before, version := records(b.registry), b.registry.Version()
		var reply []byte
		switch _, d, _ := wire.Tag(frame); rep.kind {
		case mtReportTransfer:
			reply = b.handleReportTransfer(conn, d)
		case mtReportTask:
			reply = b.handleReportTask(d)
		case mtReportMessage:
			reply = b.handleReportMessage(d)
		}
		handed = append(handed, frame)
		if bad != "" {
			if reply != nil || b.registry.Version() != version || records(b.registry) != before {
				return fmt.Errorf("%s: answered %q or changed the statistics", what, reply)
			}
			continue
		}
		if string(reply) != string(ackFrame) || !refReport(ref, conn.Remote().Node(), frame) {
			return fmt.Errorf("%s: reply %q", what, reply)
		}
		if got, want := records(b.registry), records(ref); got != want {
			return fmt.Errorf("%s: broker holds\n%s\nreference\n%s", what, got, want)
		}
	}
	for _, frame := range handed {
		for i := range frame {
			frame[i] = 0xff
		}
	}
	if got, want := records(b.registry), records(ref); got != want {
		return fmt.Errorf("seed %d: after the frames were overwritten the broker holds\n%s\nreference\n%s", seed, got, want)
	}
	return nil
}

// TestReportTransferMatchesReference is the oracle for the broker's
// transfer-report path, from frame to statistics records, and for the task
// and message reports that are read the same way.
func TestReportTransferMatchesReference(t *testing.T) {
	seeds := 6
	if testing.Short() {
		seeds = 2
	}
	for seed := 1; seed <= seeds; seed++ {
		if err := checkTransferReportProgram(int64(seed), 300); err != nil {
			t.Fatal(err)
		}
	}
}
