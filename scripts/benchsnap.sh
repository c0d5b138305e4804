#!/bin/sh
# benchsnap: record a benchmark snapshot as BENCH_<n>.json — the repo's
# perf trajectory, one committed snapshot per PR that cares to take one.
# The JSON is hand-rolled from `go test -bench` lines, so later snapshots
# diff cleanly and no external tooling is needed to read them.
#
# Since BENCH_7 a snapshot records allocs_per_op and bytes_per_op next to
# ns_per_op (-benchmem), and each benchmark runs -count=2 with the best
# (minimum) ns/op kept: wall time at -benchtime=1x is noisy, the floor is
# not. Bytes and allocs come from the second run: a scale point's first run
# in a test binary also pays for the coroutines later runs reuse (uniform-1024
# reads about 142.7k allocs cold and 113.9k warm), and from the second run on
# the count is deterministic at a fixed iteration count.
#
# The run is NOT -short: the production-scale surfaces
# (BenchmarkFigureSuite/heterogeneous, BenchmarkScale/*) skip themselves
# under -short and exist precisely to be pinned here. Expect the full run
# to take a while: the 65536-peer points (uniform-65536 and boot-65536,
# the boot alone with its ctlRPCs/peer column) each cost minutes of wall
# clock per iteration.
#
# Usage: sh scripts/benchsnap.sh <n>    # writes BENCH_<n>.json
set -eu
cd "$(dirname "$0")/.."

n="${1:?usage: benchsnap.sh <snapshot-number>}"
out="BENCH_${n}.json"
raw="$(mktemp)"
trap 'rm -f "$raw"' EXIT

# -benchtime=1x: the suite benchmarks simulate full figure runs; one
# iteration each is the tripwire granularity the trajectory needs, and it
# keeps the snapshot cheap enough to re-record on any machine. -timeout=60m
# because the 65536-peer points alone exceed go test's 10m default.
go test -run='^$' -bench=. -benchtime=1x -benchmem -count=2 -timeout=60m . > "$raw"

awk -v goversion="$(go env GOVERSION)" '
    /^goos:/    { goos = $2 }
    /^goarch:/  { goarch = $2 }
    /^cpu:/     { sub(/^cpu: /, ""); cpu = $0 }
    /^Benchmark/ {
        # NAME[-procs] <iters> <value> <unit> ... — pick values by their
        # unit label so custom b.ReportMetric columns cannot shift fields.
        name = $1; v_ns = ""; v_b = ""; v_a = ""
        for (i = 3; i < NF; i++) {
            if ($(i + 1) == "ns/op")     v_ns = $i
            if ($(i + 1) == "B/op")      v_b = $i
            if ($(i + 1) == "allocs/op") v_a = $i
        }
        if (!(name in ns) || v_ns + 0 < ns[name] + 0) ns[name] = v_ns
        iters[name] = $2; bytes[name] = v_b; allocs[name] = v_a
        if (!(name in seen)) { seen[name] = 1; order[++nb] = name }
    }
    END {
        # The -<GOMAXPROCS> suffix appears on every line or (at
        # GOMAXPROCS=1) on none; strip it only when all names share one,
        # so real name segments like "uniform-1024" survive intact.
        allsuffixed = nb > 0
        for (i = 1; i <= nb; i++) {
            if (match(order[i], /-[0-9]+$/)) {
                s = substr(order[i], RSTART)
                if (suffix == "") suffix = s
                if (s != suffix) allsuffixed = 0
            } else allsuffixed = 0
        }
        print "{"
        printf "  \"go\": \"%s\",\n", goversion
        printf "  \"goos\": \"%s\",\n", goos
        printf "  \"goarch\": \"%s\",\n", goarch
        printf "  \"cpu\": \"%s\",\n", cpu
        print  "  \"benchmarks\": ["
        for (i = 1; i <= nb; i++) {
            name = order[i]
            out = name
            if (allsuffixed) sub(/-[0-9]+$/, "", out)
            printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"bytes_per_op\": %s, \"allocs_per_op\": %s}%s\n", \
                out, iters[name], ns[name], bytes[name], allocs[name], (i < nb ? "," : "")
        }
        print  "  ]"
        print  "}"
    }
' "$raw" > "$out"
echo "wrote $out ($(grep -c '"name"' "$out") benchmarks)"
