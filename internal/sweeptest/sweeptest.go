// Package sweeptest is the repo's shared golden-file test harness: a test
// renders its result to bytes (canonical JSON, usually) and Golden compares
// them against a committed file under the package's testdata/. Running the
// package's tests with -update rewrites the files instead — record mode —
// so a deliberate output change is a reviewed diff of the goldens, and the
// determinism claims the CHANGES log used to assert by hand ("verified
// byte-identical at any worker count") become tier-1 tests: re-run the same
// experiment at several worker and shard counts and Golden both of them
// against the one committed file.
//
// The framework is deliberately byte-exact. Experiment output here is
// seed-deterministic by contract, so any byte of drift — a reordered JSON
// field, a float formatting change, a cell simulated in a different world —
// is a real finding, not noise to be tolerated.
package sweeptest

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// update is registered once for the whole test binary: `go test -update`
// puts every Golden call into record mode.
var update = flag.Bool("update", false, "rewrite golden files instead of comparing")

// Golden compares got against the committed golden file testdata/<name>,
// failing the test with a focused first-difference report on mismatch. In
// record mode (-update) it writes the file instead and logs the path.
func Golden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatalf("sweeptest: %v", err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatalf("sweeptest: %v", err)
		}
		t.Logf("sweeptest: wrote %s (%d bytes)", path, len(got))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("sweeptest: %v (run `go test -update` to record it)", err)
	}
	if err := Diff(want, got); err != nil {
		t.Fatalf("sweeptest: %s: %v (run `go test -update` if the change is deliberate)", path, err)
	}
}

// Diff reports the first byte-level difference between want and got as an
// error with surrounding context, or nil when they are identical. Exposed
// so invariance tests (same run at another worker count) can compare two
// in-memory renderings with the same reporting as a golden mismatch.
func Diff(want, got []byte) error {
	if bytes.Equal(want, got) {
		return nil
	}
	n := len(want)
	if len(got) < n {
		n = len(got)
	}
	at := n // differ only in length
	for i := 0; i < n; i++ {
		if want[i] != got[i] {
			at = i
			break
		}
	}
	return fmt.Errorf("outputs differ at byte %d (want %d bytes, got %d):\n want ...%s\n  got ...%s",
		at, len(want), len(got), excerpt(want, at), excerpt(got, at))
}

// excerpt returns a short printable window around offset at.
func excerpt(b []byte, at int) string {
	return string(b[max(at-30, 0):min(at+50, len(b))])
}
