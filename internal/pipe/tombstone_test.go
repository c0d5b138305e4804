package pipe

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"peerlab/internal/simnet"
	"peerlab/internal/transport"
	"peerlab/internal/wire"
)

// tapEndpoint logs every data frame its mux sends, with the conn id its head
// carries, and swallows those of the ids in mute, as a link that loses every
// attempt would.
type tapEndpoint struct {
	transport.Endpoint
	log  *[]tappedFrame
	mute map[uint64]bool
}

type tappedFrame struct {
	sentFrame
	id uint64
}

func (e *tapEndpoint) SendFrame(to transport.Addr, head, body []byte, size int) error {
	d := wire.NewDecoder(head)
	kind, _, id := d.Byte(), d.Bool(), d.Uint64()
	if kind != kindData {
		return e.Endpoint.SendFrame(to, head, body, size)
	}
	*e.log = append(*e.log, tappedFrame{sentFrame{to, bytes.Clone(head), body, size}, id})
	if e.mute[id] {
		return nil
	}
	return e.Endpoint.SendFrame(to, head, body, size)
}

// dialer is one remote node dialing the accepting mux: its current mux and
// endpoint, and the data frames every incarnation of it has sent.
type dialer struct {
	node *simnet.Node
	ep   transport.Endpoint
	tap  *tapEndpoint
	mux  *Mux
	log  []tappedFrame
}

// bind gives d a fresh mux whose conn ids start at first+1.
func (d *dialer) bind(t *testing.T, first uint64) {
	ep, err := d.node.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	d.ep = ep
	d.tap = &tapEndpoint{Endpoint: ep, log: &d.log, mute: map[uint64]bool{}}
	d.mux = NewMux(d.node, d.tap, Options{FirstID: first})
}

// TestTombstonesMatchReference drives three dialing muxes against one
// accepting mux through seeded programs of dials (some on links that lose
// every attempt), closes of accepted conns in any order, FirstID jumps
// (forward past a gap, far ahead as a reboot does, or back onto ids already
// used) and replays of logged data frames. After every step the accepted
// conns and delivered payloads must be those of a map model of the accepting
// side: a data frame for a conn id it never saw opens a conn and delivers its
// payload, and one for an open conn or a conn it tore down delivers nothing.
func TestTombstonesMatchReference(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) { tombstoneProgram(t, seed, 300) })
	}
}

func tombstoneProgram(t *testing.T, seed int64, steps int) {
	rng := rand.New(rand.NewSource(seed))
	n := simnet.New(seed)
	b := n.MustAddNode("b", cleanProfile())
	epB, err := b.Endpoint("pipe")
	if err != nil {
		t.Fatal(err)
	}
	var accepted []Conn
	var got [][]byte
	NewMux(b, epB, Options{Serve: func(c Conn) Handler {
		accepted = append(accepted, c)
		first := true
		return handlerFunc(func(_ Conn, ev Event) {
			if first && ev.Err == nil {
				got = append(got, ev.Msg.Payload)
			}
			first = false
		})
	}})
	dialers := make([]*dialer, 2+rng.Intn(2))
	for i := range dialers {
		dialers[i] = &dialer{node: n.MustAddNode(fmt.Sprintf("r%d", i), cleanProfile())}
		dialers[i].bind(t, 0)
	}

	// The reference: every conn key the accepting mux has seen, true once
	// it tore the conn down.
	model := map[connKey]bool{}
	var want [][]byte
	lands := func(d *dialer, id uint64, payload []byte) string {
		key := connKey{d.ep.Addr(), id, true}
		dead, seen := model[key]
		switch {
		case !seen:
			model[key] = false
			want = append(want, payload)
			return "new"
		case dead:
			return "dead"
		}
		return "open"
	}
	replays := map[string]int{} // by what the model said of the frame
	keyOf := func(h Conn) connKey {
		return peek(h, func(c *conn) connKey { return connKey{c.peer, c.id, c.theirs} })
	}

	n.Run(func() {
		for step := 0; step < steps; step++ {
			d := dialers[rng.Intn(len(dialers))]
			var did string
			switch op := rng.Intn(10); {
			case op < 4: // dial and send one message
				c, err := d.mux.Dial(epB.Addr())
				if err != nil {
					t.Errorf("step %d: dial: %v", step, err)
					return
				}
				id := keyOf(c).id
				payload := []byte(fmt.Sprintf("%s#%d", d.node.Name(), step))
				if rng.Intn(4) == 0 {
					d.tap.mute[id] = true
				} else {
					lands(d, id, payload)
				}
				n.Scheduler().Go(func() {
					if c.Send(payload) == nil {
						c.Close()
					}
				})
				did = fmt.Sprintf("%s dials id %d (muted %v)", d.node.Name(), id, d.tap.mute[id])
			case op < 7: // close an open accepted conn, whichever
				var open []Conn
				for _, h := range accepted {
					if !model[keyOf(h)] {
						open = append(open, h)
					}
				}
				if len(open) == 0 {
					continue
				}
				h := open[rng.Intn(len(open))]
				key := keyOf(h)
				h.Close()
				model[key] = true
				did = fmt.Sprintf("b closes %s id %d", key.peer, key.id)
			case op < 8: // rebind with a FirstID jump
				next := d.mux.nextID
				var first uint64
				switch rng.Intn(3) {
				case 0:
					first = next + uint64(rng.Intn(4))
				case 1:
					first = uint64(rng.Int63n(int64(next) + 1))
				default:
					first = next + 1<<40 + uint64(rng.Intn(1<<10))
				}
				d.mux.Close()
				d.bind(t, first)
				did = fmt.Sprintf("%s reboots at FirstID %d", d.node.Name(), first)
			default: // replay a logged data frame
				if len(d.log) == 0 {
					continue
				}
				f := d.log[rng.Intn(len(d.log))]
				replays[lands(d, f.id, f.body)]++
				d.ep.SendFrame(f.to, f.head, f.body, f.size)
				did = fmt.Sprintf("%s replays id %d", d.node.Name(), f.id)
			}
			b.Sleep(time.Second)
			if len(accepted) != len(want) || !slices.EqualFunc(got, want, bytes.Equal) {
				t.Errorf("step %d, %s: accepted %d conns delivering %q, the model %d delivering %q",
					step, did, len(accepted), got, len(want), want)
				return
			}
		}
	})
	if replays["new"] == 0 || replays["open"] == 0 || replays["dead"] == 0 {
		t.Fatalf("replays by the model's verdict: %v; want some of each", replays)
	}
}

// TestIDSpansMatchSet adds ids in random order, from ranges narrow enough to
// make spans meet (some at the top of the id space), and checks membership
// and the span invariant (sorted, disjoint, never adjacent) against a plain
// set after every add.
func TestIDSpansMatchSet(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for trial := 0; trial < 200; trial++ {
		width := 1 + rng.Intn(64)
		base := uint64(rng.Int63())
		if trial%4 == 0 {
			base = math.MaxUint64 - uint64(width) + 1
		}
		ref := map[uint64]bool{}
		var s idSpans
		for i := 0; i < 2*width; i++ {
			id := base + uint64(rng.Intn(width))
			s.add(id)
			ref[id] = true
			for k := -1; k <= width; k++ {
				if probe := base + uint64(k); s.has(probe) != ref[probe] {
					t.Fatalf("trial %d: after adding %d, has(%d) = %v", trial, id, probe, !ref[probe])
				}
			}
			for j := 1; j < len(s.more); j++ {
				if s.more[j].lo <= s.more[j-1].lo+s.more[j-1].n {
					t.Fatalf("trial %d: spans %v are not sorted, disjoint and apart", trial, s.more)
				}
			}
		}
	}
}
