package scenario

import "testing"

// FuzzParse locks the scenario grammar: no input may panic it, and any
// accepted spec must round-trip through the scenario's canonical name —
// Parse(sc.Name) resolves to the identical scenario identity (generator
// specs normalize, e.g. "uniform:007" names itself "uniform:7", and the
// normalized form is a fixed point); the bare name "table1" names itself.
func FuzzParse(f *testing.F) {
	f.Add("uniform:8")
	f.Add("heterogeneous:128")
	f.Add("zipf:64")
	f.Add("churn:007")
	f.Add("faults:8")
	f.Add("table1")
	f.Add("uniform:-3")
	f.Add("churn:")
	f.Add(":16")
	f.Fuzz(func(t *testing.T, spec string) {
		sc, err := Parse(spec)
		if err != nil {
			return
		}
		if sc.Name == "" || sc.IsZero() {
			t.Fatalf("Parse(%q) accepted an unusable scenario: %+v", spec, sc)
		}
		back, err := Parse(sc.Name)
		if err != nil {
			t.Fatalf("canonical name %q of %q rejected: %v", sc.Name, spec, err)
		}
		if back.Name != sc.Name {
			t.Fatalf("canonical name not a fixed point: %q -> %q -> %q", spec, sc.Name, back.Name)
		}
		if len(back.Labels) != len(sc.Labels) {
			t.Fatalf("round trip of %q changed the label count: %d vs %d", spec, len(sc.Labels), len(back.Labels))
		}
	})
}
