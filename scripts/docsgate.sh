#!/bin/sh
# docsgate: fail when any internal/* package (or the root peerlab package)
# lacks a package comment that `go doc` will actually print — a comment
# block starting "// Package ..." attached directly above the package
# clause of a non-test file. A detached comment (blank line before the
# clause) or one hiding in a _test.go file does not satisfy the
# documented-public-surface contract, so a plain grep is not enough.
#
# It also fails when DESIGN.md, README.md or a Go source outside bench/ names
# a PR by number: those files state the rules the code holds to now, and the
# history of how it got there lives in CHANGES.md and ROADMAP.md.
set -eu
cd "$(dirname "$0")/.."

# has_pkg_doc FILE: true when FILE carries an attached package comment.
has_pkg_doc() {
    awk '
        /^\/\// { if (!c) { c = 1; first = $0 } last = NR; next }
        /^package / { if (c && last == NR - 1 && first ~ /^\/\/ Package /) found = 1; exit }
        { c = 0 }
        END { exit found ? 0 : 1 }
    ' "$1"
}

fail=0
for dir in . internal/*/; do
    ok=0
    for f in "$dir"/*.go; do
        [ -e "$f" ] || continue
        case "$f" in *_test.go) continue ;; esac
        if has_pkg_doc "$f"; then
            ok=1
            break
        fi
    done
    if [ "$ok" -eq 0 ]; then
        echo "docsgate: no attached package comment (// Package ...) in $dir" >&2
        fail=1
    fi
done
history=$(
    { grep -nE 'PR [0-9]+' DESIGN.md README.md /dev/null
      find . -name '*.go' -not -path './bench/*' -exec grep -nE 'PR [0-9]+' /dev/null {} +
    } || true
)
if [ -n "$history" ]; then
    echo "docsgate: PR numbers outside CHANGES.md/ROADMAP.md (state the rule, not its history):" >&2
    echo "$history" >&2
    fail=1
fi
if [ "$fail" -ne 0 ]; then
    exit 1
fi
echo "docsgate: every package documents itself; docs and sources name no PR"
