package workload

import (
	"strings"
	"testing"

	"peerlab/internal/transfer"
)

// FuzzParse locks the workload grammar: no input may panic it, and any
// accepted spec must round-trip through the workload's canonical name —
// Parse(w.Name) resolves to a workload of the same name, and that name is
// a fixed point ("swarm:010" normalizes to "swarm:10").
func FuzzParse(f *testing.F) {
	f.Add("controller-fanout")
	f.Add("swarm:128")
	f.Add("allpairs:16")
	f.Add("swarm:010")
	f.Add("swarm:-1")
	f.Add("allpairs:")
	f.Add(":8")
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := Parse(spec)
		if err != nil {
			return
		}
		if w.Name == "" || w.IsZero() {
			t.Fatalf("Parse(%q) accepted an unusable workload: %+v", spec, w)
		}
		back, err := Parse(w.Name)
		if err != nil {
			t.Fatalf("canonical name %q of %q rejected: %v", w.Name, spec, err)
		}
		if back.Name != w.Name {
			t.Fatalf("canonical name not a fixed point: %q -> %q -> %q", spec, w.Name, back.Name)
		}
	})
}

// FuzzParseDisseminate locks the dissemination grammar — the base families
// plus the ";"-separated option tail. No input may panic the parser, any
// accepted dissemination spec must round-trip through its canonical name,
// and the accepted configuration must sit inside the documented bounds
// (piece count within [1, transfer.MaxPieces], pick and choke from the registered
// policy sets).
func FuzzParseDisseminate(f *testing.F) {
	f.Add("disseminate:16")
	f.Add("stream:8")
	f.Add("disseminate:128;pick=rarest;choke=tft")
	f.Add("stream:6;pick=sequential;choke=none;pieces=32")
	f.Add("disseminate:4;pieces=1024")
	f.Add("disseminate:4;pieces=1025")
	f.Add("disseminate:0;pick=rarest")
	f.Add("disseminate:4;pick=rarest;pick=rarest")
	f.Add("disseminate:4;pick")
	f.Add("disseminate:4;nope=1")
	f.Add("swarm:4;pick=rarest")
	f.Add("stream:;choke=tft")
	f.Add("disseminate:4;;choke=none")
	f.Fuzz(func(t *testing.T, spec string) {
		w, err := Parse(spec)
		if err != nil {
			return
		}
		if w.Disseminate == nil {
			// Options only attach to the dissemination families; any other
			// accepted workload carrying an option tail is a parser hole.
			if base, _, opts := strings.Cut(spec, ";"); opts {
				t.Fatalf("Parse(%q) accepted options on non-dissemination base %q", spec, base)
			}
			return
		}
		d := *w.Disseminate
		if d.Pieces < 1 || d.Pieces > transfer.MaxPieces {
			t.Fatalf("Parse(%q) pieces out of bounds: %d", spec, d.Pieces)
		}
		pickOK, chokeOK := false, false
		for _, p := range Picks {
			pickOK = pickOK || d.Pick == p
		}
		for _, c := range Chokes {
			chokeOK = chokeOK || d.Choke == c
		}
		if !pickOK || !chokeOK {
			t.Fatalf("Parse(%q) accepted unregistered policy: pick=%q choke=%q", spec, d.Pick, d.Choke)
		}
		back, err := Parse(w.Name)
		if err != nil {
			t.Fatalf("canonical name %q of %q rejected: %v", w.Name, spec, err)
		}
		if back.Name != w.Name {
			t.Fatalf("canonical name not a fixed point: %q -> %q -> %q", spec, w.Name, back.Name)
		}
		if back.Disseminate == nil || *back.Disseminate != d {
			t.Fatalf("canonical name %q lost configuration: %+v vs %+v", w.Name, back.Disseminate, d)
		}
	})
}
