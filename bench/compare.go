package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// compareFiles prints, for every workload × end-to-end metric two result
// files share, both medians with their quartiles, the change, the bound and
// a verdict, then the exact quantities: fail_share (any increase is a
// regression) and the result digests. It reports whether anything
// regressed. Comparing two sets of runs of one commit is how "the rig
// repeats" is checked; comparing a parent's file with a change's is how a
// claim is.
func compareFiles(w io.Writer, parentPath, changePath string) (regressed bool, err error) {
	parent, err := readResult(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readResult(changePath)
	if err != nil {
		return false, err
	}
	fmt.Fprintf(w, "parent %s (%s)\nchange %s (%s)\n", parentPath, parent.Env.Commit, changePath, change.Env.Commit)
	if parent.Quick || change.Quick {
		fmt.Fprintln(w, "WARNING: a quick-mode result is not comparable with anything")
	}
	for _, d := range parent.Env.differences(change.Env) {
		fmt.Fprintf(w, "WARNING: conditions differ — %s\n", d)
	}
	changeOf := make(map[string]workloadResult, len(change.Workloads))
	for _, wr := range change.Workloads {
		changeOf[wr.Name] = wr
	}
	var digests []string
	for _, p := range parent.Workloads {
		c, ok := changeOf[p.Name]
		if !ok {
			fmt.Fprintf(w, "\n== %s: only in %s\n", p.Name, parentPath)
			continue
		}
		fmt.Fprintf(w, "\n== %s\n  %-12s %-3s %11s %23s %11s %23s %8s %6s  %s\n", p.Name,
			"metric", "", "parent", "[q1, q3]", "change", "[q1, q3]", "delta", "bound", "verdict")
		for _, m := range endToEnd {
			pd, cd := p.EndToEnd[m.Name], c.EndToEnd[m.Name]
			if pd.N == 0 || cd.N == 0 {
				continue
			}
			v := verdict(pd, cd, m.Bound, m.Higher)
			regressed = regressed || v == verdictRegressed
			fmt.Fprintf(w, "  %-12s %-3s %11.5g [%10.5g,%11.5g] %11.5g [%10.5g,%11.5g] %+7.1f%% %5.0f%%  %s\n",
				m.Name, m.Unit, pd.Median, pd.Q1, pd.Q3, cd.Median, cd.Q1, cd.Q3,
				share(cd.Median-pd.Median, pd.Median), m.Bound*100, v)
		}
		v := verdictOK
		if c.FailShare > p.FailShare {
			v, regressed = verdictRegressed, true
		}
		fmt.Fprintf(w, "  %-12s %-3s %11.5g %23s %11.5g %23s %8s %6s  %s\n",
			"fail_share", "", p.FailShare, "", c.FailShare, "", "", "exact", v)
		if p.Digest != c.Digest {
			digests = append(digests, fmt.Sprintf("%s: %.16s → %.16s", p.Name, p.Digest, c.Digest))
		}
	}
	fmt.Fprintln(w)
	if len(digests) == 0 {
		fmt.Fprintln(w, "result digests: identical on every shared workload")
	}
	for _, d := range digests {
		fmt.Fprintf(w, "DIGEST CHANGED (the two sides simulated different things) %s\n", d)
	}
	return regressed, nil
}

func readResult(path string) (resultFile, error) {
	var r resultFile
	data, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(data, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}
