#!/bin/sh
# Query-service smoke test: boot cliqued on a random port, load the
# Table-1 graph over HTTP, and require (a) the streamed text enumeration
# to be byte-identical to cliquer's output on the same graph, (b) the
# repeated query to be served from the result cache (X-Cliqued-Cache:
# hit) with identical bytes, and (c) a client killed mid-stream to leave
# the server healthy with the governor back at the pinned-graph
# baseline, and (d) SIGTERM to drain the daemon to exit status 0.  CI
# runs this on every push.
set -eu

workdir=$(mktemp -d "${TMPDIR:-/tmp}/repro-smoke-cliqued-XXXXXX")
daemon_pid=""
cleanup() {
    [ -n "$daemon_pid" ] && kill "$daemon_pid" 2>/dev/null || true
    rm -rf "$workdir"
}
trap cleanup EXIT

echo "smoke-cliqued: building"
go build -o "$workdir/graphgen" ./cmd/graphgen
go build -o "$workdir/cliquer" ./cmd/cliquer
go build -o "$workdir/cliqued" ./cmd/cliqued

echo "smoke-cliqued: generating the Table-1 graph"
"$workdir/graphgen" -spec A -out "$workdir/a.el"

# Clique lines are vertex names separated by spaces; everything else
# cliquer prints starts with a known prefix or is indented.
"$workdir/cliquer" -lo 3 -no-bound "$workdir/a.el" \
    | grep -Ev '^(graph:|maximum clique:|done|interrupted|aborted| )' >"$workdir/ref.cliques" || true
[ -s "$workdir/ref.cliques" ] || { echo "smoke-cliqued: cliquer emitted no cliques" >&2; exit 1; }
echo "smoke-cliqued: cliquer reference delivered $(wc -l <"$workdir/ref.cliques") cliques"

echo "smoke-cliqued: starting the daemon"
"$workdir/cliqued" -addr 127.0.0.1:0 -mem-budget 268435456 >"$workdir/daemon.log" 2>&1 &
daemon_pid=$!

base=""
for _ in $(seq 1 50); do
    base=$(sed -n 's/^cliqued: listening on \(.*\)$/http:\/\/\1/p' "$workdir/daemon.log")
    [ -n "$base" ] && break
    kill -0 "$daemon_pid" 2>/dev/null || { echo "smoke-cliqued: daemon died at startup" >&2; cat "$workdir/daemon.log" >&2; exit 1; }
    sleep 0.1
done
[ -n "$base" ] || { echo "smoke-cliqued: daemon never announced its address" >&2; cat "$workdir/daemon.log" >&2; exit 1; }
echo "smoke-cliqued: daemon is at $base"

fp=$(curl -sf -X POST --data-binary @"$workdir/a.el" "$base/graphs?name=a" \
    | sed -n 's/.*"fingerprint":"\([0-9a-f]*\)".*/\1/p')
[ -n "$fp" ] || { echo "smoke-cliqued: graph load returned no fingerprint" >&2; exit 1; }
echo "smoke-cliqued: loaded graph $fp"

# Governor baseline with the graph pinned and nothing running.
baseline=$(curl -sf "$base/healthz" | sed -n 's/.*"used":\([0-9]*\).*/\1/p')

echo "smoke-cliqued: streaming enumeration (text, lo=3)"
curl -sf -D "$workdir/h1" "$base/graphs/$fp/cliques?format=text&lo=3" >"$workdir/stream1"
grep -qi '^x-cliqued-cache: miss' "$workdir/h1" || { echo "smoke-cliqued: first query did not report a cache miss" >&2; cat "$workdir/h1" >&2; exit 1; }
if ! cmp -s "$workdir/ref.cliques" "$workdir/stream1"; then
    echo "smoke-cliqued: streamed cliques diverge from cliquer output" >&2
    diff "$workdir/ref.cliques" "$workdir/stream1" | head -20 >&2
    exit 1
fi
echo "smoke-cliqued: stream matches cliquer byte for byte"

echo "smoke-cliqued: repeating the query (must hit the cache)"
curl -sf -D "$workdir/h2" "$base/graphs/$fp/cliques?format=text&lo=3" >"$workdir/stream2"
grep -qi '^x-cliqued-cache: hit' "$workdir/h2" || { echo "smoke-cliqued: repeat query missed the cache" >&2; cat "$workdir/h2" >&2; exit 1; }
cmp -s "$workdir/stream1" "$workdir/stream2" || { echo "smoke-cliqued: cached replay diverges from the original stream" >&2; exit 1; }
echo "smoke-cliqued: cache hit, replay identical"

echo "smoke-cliqued: killing a client mid-stream"
# head exits after one small read; the broken pipe kills curl and the
# server sees the disconnect while the enumeration is still running.
curl -s -N "$base/graphs/$fp/cliques?format=text&lo=3&mode=store" | head -c 200 >/dev/null || true

ok=""
for _ in $(seq 1 100); do
    health=$(curl -sf "$base/healthz") || { echo "smoke-cliqued: healthz failed after disconnect" >&2; exit 1; }
    used=$(printf '%s' "$health" | sed -n 's/.*"used":\([0-9]*\).*/\1/p')
    active=$(printf '%s' "$health" | sed -n 's/.*"active_queries":\([0-9]*\).*/\1/p')
    residual=$(printf '%s' "$health" | sed -n 's/.*"residual_bytes":\([0-9]*\).*/\1/p')
    if [ "$used" = "$baseline" ] && [ "$active" = "0" ]; then
        [ "$residual" = "0" ] || { echo "smoke-cliqued: disconnect left residual_bytes=$residual" >&2; exit 1; }
        ok=1
        break
    fi
    sleep 0.1
done
[ -n "$ok" ] || { echo "smoke-cliqued: governor never returned to baseline $baseline after disconnect: $health" >&2; exit 1; }
echo "smoke-cliqued: memory back to baseline ($baseline bytes), server healthy"

# The server still answers queries after the abandoned stream.
curl -sf "$base/graphs/$fp/cliques?format=text&lo=5" >/dev/null \
    || { echo "smoke-cliqued: query after disconnect failed" >&2; exit 1; }

kill "$daemon_pid"
status=0
wait "$daemon_pid" || status=$?
daemon_pid=""
[ "$status" = 0 ] || { echo "smoke-cliqued: SIGTERM did not drain the daemon (exit $status)" >&2; exit 1; }
echo "smoke-cliqued: PASS"
