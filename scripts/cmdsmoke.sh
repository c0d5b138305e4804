#!/bin/sh
# cmdsmoke: build the operator CLIs and smoke a real-TCP session — the
# simulator-validated code paths on actual sockets. Boots a broker, parks
# one serving peer, then drives one-shot peers through the three actions
# (instant message, task submission, chunked file transfer), each a fresh
# boot under the same name. Any failed registration, undelivered action, or
# hung process fails the script (the serving peer's received-file line is
# asserted, not just exit codes).
#
# Usage: sh scripts/cmdsmoke.sh
set -eu
cd "$(dirname "$0")/.."

bin="$(mktemp -d)"
srvlog="$bin/sc2.log"
cleanup() {
    kill "${peer_pid:-}" 2>/dev/null || true
    kill "${broker_pid:-}" 2>/dev/null || true
    rm -rf "$bin"
}
trap cleanup EXIT

echo "cmdsmoke: building cmd/broker cmd/peer"
go build -o "$bin/" ./cmd/broker ./cmd/peer

"$bin/broker" -name nozomi -listen 127.0.0.1:7390 -shards 2 &
broker_pid=$!
sleep 1

# sc2 serves until killed; its stdout carries the delivery evidence.
"$bin/peer" -name sc2 -listen 127.0.0.1:7392 -broker nozomi=127.0.0.1:7390 \
    -cpu 2 > "$srvlog" &
peer_pid=$!
sleep 1
kill -0 "$peer_pid" 2>/dev/null || {
    echo "cmdsmoke: serving peer died during boot" >&2; cat "$srvlog" >&2; exit 1
}

# One-shot actions from sc1, each a fresh boot.
common="-name sc1 -listen 127.0.0.1:7391 -broker nozomi=127.0.0.1:7390 -route sc2=127.0.0.1:7392"
"$bin/peer" $common -msg sc2:hello-from-cmdsmoke
"$bin/peer" $common -task sc2:0.5
"$bin/peer" $common -sendfile sc2:1000000:4

grep -q "instant from sc1: hello-from-cmdsmoke" "$srvlog" || {
    echo "cmdsmoke: instant message never reached sc2" >&2; cat "$srvlog" >&2; exit 1
}
# sc2 acknowledges the last part before it reassembles and prints the file,
# so the sender can exit first: give the line a few seconds to land.
received="received \"cli-payload\" (1000000 bytes) from sc1, verified=true"
for _ in 1 2 3 4 5 6 7 8 9 10; do
    grep -q "$received" "$srvlog" && break
    sleep 0.5
done
grep -q "$received" "$srvlog" || {
    echo "cmdsmoke: file transfer not verified on sc2" >&2; cat "$srvlog" >&2; exit 1
}
echo "cmdsmoke: OK (msg, task, 4-part sendfile delivered over TCP)"
