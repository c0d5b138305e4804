#!/bin/sh
# benchgate: hold the perf trajectory. Records a fresh snapshot (same
# collection as benchsnap: -benchtime=1x -benchmem -count=2) and compares
# it against the latest committed BENCH_<n>.json. A benchmark fails the
# gate when its allocs_per_op leaves the band of TOL_ALLOCS_PCT (default
# 20%) around the baseline, either way: above it is a regression, below it
# a gain no snapshot records yet, which would widen the room a later
# regression has under the stale baseline, so the gate asks for a new
# BENCH_<n>. Counts are near-deterministic at a fixed iteration count, so
# the band only absorbs intentional small drifts between snapshot and gate
# runs. As in benchsnap, allocs come from each benchmark's second run: a
# scale point's first run in a test binary also pays for the coroutines
# later runs reuse, so only the second run reads one mode.
#
# bytes_per_op, read from the same second run, is gated the same way with
# a fixed band of bytes_band percent. Over 10 runs of one test binary the
# widest bytes spread (max - min over the median) was 8.9%, on
# BenchmarkAblationPipeWindow/stop-and-wait; every scale point stayed
# within 0.3%. The band is a little over twice the widest spread, so a
# lost bytes win such as BenchmarkScale/faults-128's (7.85 -> 4.64 MB/op)
# cannot pass it. One reading in 27 of BenchmarkTable1Catalog came out
# 9 672 B/op instead of 4 424: a stray runtime allocation of a few KiB is
# counted too, so a move of bytes_slack or less never fails.
#
# ns_per_op is not gated: one iteration of wall time on a shared box drifts
# ~40% over minutes, and a 50% band flagged the parent's own binary on two
# consecutive PRs. Wall-time claims live in `go run ./bench -compare` with
# alternating parent/change pairs.
#
# Benchmarks present on one side only are reported but never fail the gate:
# new surfaces gate from their first committed snapshot onward. Baselines
# older than BENCH_7 carry no alloc fields; those comparisons are skipped.
#
# Usage: sh scripts/benchgate.sh            # gate against latest BENCH_*.json
#        TOL_ALLOCS_PCT=5 sh scripts/benchgate.sh
set -eu
cd "$(dirname "$0")/.."

bytes_band=20
bytes_slack=16384

base="$(ls BENCH_*.json 2>/dev/null | sort -t_ -k2 -n | tail -1)"
if [ -z "$base" ]; then
    echo "benchgate: no committed BENCH_*.json baseline; nothing to gate" >&2
    exit 0
fi

tol_allocs="${TOL_ALLOCS_PCT:-20}"
raw="$(mktemp)"
cur="$(mktemp)"
trap 'rm -f "$raw" "$cur"' EXIT

go test -run='^$' -bench=. -benchtime=1x -benchmem -count=2 -timeout=60m . > "$raw"
awk '
    /^Benchmark/ {
        # Values picked by unit label (custom metrics shift positions);
        # the -<GOMAXPROCS> suffix is stripped only when every name
        # carries the same one — see benchsnap.sh.
        name = $1; v_ns = ""; v_b = ""; v_a = ""
        for (i = 3; i < NF; i++) {
            if ($(i + 1) == "ns/op")     v_ns = $i
            if ($(i + 1) == "B/op")      v_b = $i
            if ($(i + 1) == "allocs/op") v_a = $i
        }
        if (!(name in ns) || v_ns + 0 < ns[name] + 0) ns[name] = v_ns
        bytes[name] = v_b; allocs[name] = v_a
        if (!(name in seen)) { seen[name] = 1; order[++nb] = name }
    }
    END {
        allsuffixed = nb > 0
        for (i = 1; i <= nb; i++) {
            if (match(order[i], /-[0-9]+$/)) {
                s = substr(order[i], RSTART)
                if (suffix == "") suffix = s
                if (s != suffix) allsuffixed = 0
            } else allsuffixed = 0
        }
        for (i = 1; i <= nb; i++) {
            name = order[i]
            out = name
            if (allsuffixed) sub(/-[0-9]+$/, "", out)
            printf "%s %s %s %s\n", out, ns[name], allocs[name], bytes[name]
        }
    }
' "$raw" > "$cur"

echo "benchgate: comparing against $base (allocs ±${tol_allocs}%, bytes ±${bytes_band}%)"
awk -v base="$base" -v tolallocs="$tol_allocs" -v tolbytes="$bytes_band" -v slack="$bytes_slack" '
    # Baseline: one benchmark object per line in our hand-rolled JSON.
    NR == FNR && /"name"/ {
        name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
        if (match($0, /"ns_per_op": [0-9.]+/))
            bns[name] = substr($0, RSTART + 13, RLENGTH - 13)
        if (match($0, /"allocs_per_op": [0-9]+/))
            ballocs[name] = substr($0, RSTART + 17, RLENGTH - 17)
        if (match($0, /"bytes_per_op": [0-9]+/))
            bbytes[name] = substr($0, RSTART + 16, RLENGTH - 16)
        next
    }
    NR == FNR { next }
    # Current: "name ns allocs bytes" lines.
    {
        name = $1; cns = $2; callocs = $3; cbytes = $4; seen[name] = 1
        if (!(name in bns)) { printf "  new      %-55s %12s ns/op (no baseline)\n", name, cns; next }
        if ((name in ballocs) && callocs != "" ) {
            alimit = ballocs[name] * (1 + tolallocs / 100)
            afloor = ballocs[name] * (1 - tolallocs / 100)
            if (callocs + 0 > alimit) {
                printf "  FAIL alloc %-53s %12s allocs/op > %.0f (baseline %s +%s%%)\n", name, callocs, alimit, ballocs[name], tolallocs
                bad = 1
            }
            if (callocs + 0 < afloor) {
                printf "  FAIL alloc %-53s %12s allocs/op < %.0f (baseline %s -%s%%): record BENCH_<n>\n", name, callocs, afloor, ballocs[name], tolallocs
                bad = 1
            }
        }
        if ((name in bbytes) && cbytes != "") {
            blimit = bbytes[name] * (1 + tolbytes / 100)
            bfloor = bbytes[name] * (1 - tolbytes / 100)
            if (blimit < bbytes[name] + slack) blimit = bbytes[name] + slack
            if (bfloor > bbytes[name] - slack) bfloor = bbytes[name] - slack
            if (cbytes + 0 > blimit) {
                printf "  FAIL bytes %-53s %12s B/op > %.0f (baseline %s +%s%%)\n", name, cbytes, blimit, bbytes[name], tolbytes
                bad = 1
            }
            if (cbytes + 0 < bfloor) {
                printf "  FAIL bytes %-53s %12s B/op < %.0f (baseline %s -%s%%): record BENCH_<n>\n", name, cbytes, bfloor, bbytes[name], tolbytes
                bad = 1
            }
        }
    }
    END {
        for (name in bns) if (!(name in seen))
            printf "  gone     %-55s (in baseline, not in current run)\n", name
        if (bad) { print "benchgate: FAIL — allocs/op or B/op left its band; a gain is kept by recording BENCH_<n> (sh scripts/benchsnap.sh <n>)"; exit 1 }
        print "benchgate: OK"
    }
' "$base" "$cur"
