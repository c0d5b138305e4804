#!/bin/sh
# reach: which statements of the program no run reaches. Builds cmd/p2pbench
# and the repository benchmark with coverage over every peerlab package, runs
# what an operator runs — the figure suite at one rep, the four figures that
# bring their own scenario, CI's sweep grids, the benchmark at quarter size —
# and the checked Example walkthroughs, merges the coverage, and prints, per
# non-test Go file outside bench/, the statements none of them executed.
#
# Output: one line per file with any unreached statement,
#   <unreached>/<statements>  <file>  <line ranges of the unreached blocks>
# then a total. A statement listed here runs only under unit tests, or never:
# a path to delete, or to give a workload that shows what it is for. The
# script reports; it exits non-zero only when a run fails.
#
# Usage: sh scripts/reach.sh
set -eu
cd "$(dirname "$0")/.."

work="$(mktemp -d)"
trap 'rm -rf "$work"' EXIT
cov="$work/cov"
mkdir "$cov"

echo "reach: building cmd/p2pbench and bench with coverage" >&2
go build -cover -coverpkg=peerlab/... -o "$work/p2pbench" ./cmd/p2pbench
go build -cover -coverpkg=peerlab/... -o "$work/bench" ./bench

run() { GOCOVERDIR="$cov" "$@" > /dev/null; }

echo "reach: running the figures, the sweep grids and the benchmark" >&2
run "$work/p2pbench" -reps 1 -format json
for fig in figchurn figfault figcluster figstream; do
    run "$work/p2pbench" -experiment "$fig" -reps 1 -format json
done
for grid in 'scenario=churn:16;granularity=2,4;churn=1,2;rep=1' \
    'scenario=faults:64;workload=swarm:64;rep=1' \
    'scenario=heterogeneous:64;workload=disseminate:64;rep=1' \
    'scenario=zipf:16;pick=rarest,sequential;rep=1'; do
    run "$work/p2pbench" -sweep "$grid" -format json
done
run "$work/bench" -quick -no-probes -trace 0 -out "$work/bench_out"

echo "reach: running the Example functions" >&2
go test -run '^Example' -coverpkg=peerlab/... -coverprofile="$work/examples.out" . > /dev/null

go tool covdata textfmt -i="$cov" -o="$work/runs.out"

# A block is reached when any profile counted it. Profile lines read
# "peerlab/<file>:<line>.<col>,<line>.<col> <statements> <count>"; the first
# pass folds them to one "<file> <first line> <last line> <statements>
# <reached>" line per block, the second sums them per file and joins the
# unreached blocks' lines into ranges.
cat "$work/runs.out" "$work/examples.out" | awk '
    /^mode:/ { next }
    { stmts[$1] = $2; if ($3 > 0) hit[$1] = 1 }
    END {
        for (block in stmts) {
            split(block, at, ":"); split(at[2], span, ","); split(span[1], from, "."); split(span[2], to, ".")
            file = at[1]; sub(/^peerlab\//, "", file)
            if (file !~ /^bench\//) print file, from[1], to[1], stmts[block], (block in hit)
        }
    }
' | sort -k1,1 -k2,2n -k3,3n > "$work/blocks"

# Files with functions that no run links in (the TCP commands, realnet) have
# no profile lines at all; they are named as such rather than left out.
find . -name '*.go' ! -name '*_test.go' ! -path './bench/*' -exec grep -l '^func ' {} + |
    sed 's|^\./||' | sort > "$work/files"

awk '
    function flush() {
        if (file != "" && missed > 0) {
            printf "%d/%d  %s %s\n", missed, total, file, ranges (from ? " " from "-" to : "")
            unreached += missed
        }
        all += total; total = missed = from = to = 0; ranges = ""
    }
    FNR == NR { linked[$1] = 0; order[++nfiles] = $1; next }
    $1 != file { flush(); file = $1; linked[file] = 1 }
    {
        total += $4
        if ($5 || $4 == 0) next
        missed += $4
        if (from && $2 <= to + 1) { if ($3 > to) to = $3; next }
        if (from) ranges = ranges " " from "-" to
        from = $2; to = $3
    }
    END {
        flush()
        for (i = 1; i <= nfiles; i++) if (!linked[order[i]]) printf "-  %s  not built into any run\n", order[i]
        printf "reach: %d of %d statements outside bench/ unreached\n", unreached, all
    }
' "$work/files" "$work/blocks"
