#!/bin/sh
# Distributed-enumeration smoke test: run the Table-1 graph through the
# dist coordinator with 3 exec/pipe workers, SIGKILL one worker process
# mid-level from outside (the real fault, not an injected one), and
# require (a) the run to survive via respawn + shard re-lease, (b) the
# printed maximal-clique stream to be byte-identical to the sequential
# reference, and (c) the persisted run report to show the re-leased
# shard.  A fault-free run at -lo 5 must also match the sequential
# stream and report its first level from 5.  CI runs this on every push.
#
# The kill is timing-dependent (the victim must hold a lease for a
# re-lease to be observable), so the kill run retries a few times; the
# stream-parity assertion applies to every attempt regardless.
set -eu

workdir=$(mktemp -d "${TMPDIR:-/tmp}/repro-smoke-dist-XXXXXX")
trap 'rm -rf "$workdir"' EXIT

echo "smoke-dist: building"
go build -o "$workdir/cliquer" ./cmd/cliquer
go build -o "$workdir/graphgen" ./cmd/graphgen

echo "smoke-dist: generating the Table-1 graph"
"$workdir/graphgen" -spec A -out "$workdir/a.el"

# Clique lines are vertex names separated by spaces; everything else the
# tool prints starts with a known prefix or is indented.
cliques() {
    grep -Ev '^(graph:|maximum clique:|done|interrupted|aborted| )' "$1" || true
}

echo "smoke-dist: sequential reference"
"$workdir/cliquer" -lo 3 -no-bound "$workdir/a.el" >"$workdir/ref.out"
cliques "$workdir/ref.out" >"$workdir/ref.cliques"
[ -s "$workdir/ref.cliques" ] || { echo "smoke-dist: reference emitted no cliques" >&2; exit 1; }
echo "smoke-dist: reference delivered $(wc -l <"$workdir/ref.cliques") cliques"

# Small shards = many leases per level, so a mid-run SIGKILL almost
# always lands on a worker with a lease in flight.
dist_run() {
    name=$1; rundir=$2
    "$workdir/cliquer" -lo 3 -no-bound \
        -dist 3 -ooc "$rundir" -dist-shard-bytes 2048 \
        "$workdir/a.el" >"$workdir/$name.out"
}

check_stream() {
    name=$1
    cliques "$workdir/$name.out" >"$workdir/$name.cliques"
    if ! cmp -s "$workdir/ref.cliques" "$workdir/$name.cliques"; then
        echo "smoke-dist: $name clique stream diverges from the sequential reference" >&2
        diff "$workdir/ref.cliques" "$workdir/$name.cliques" | head -20 >&2
        exit 1
    fi
}

echo "smoke-dist: fault-free distributed run (3 workers)"
dist_run dist0 "$workdir/run0"
grep -q 'done (distributed)' "$workdir/dist0.out"
check_stream dist0
[ -f "$workdir/run0/dist-manifest.json" ] || {
    echo "smoke-dist: no run report after the fault-free run" >&2; exit 1; }
echo "smoke-dist: fault-free run matches the reference"

# A lower bound above 3 seeds the coordinator at the bound, like the
# in-core backends: the same stream as the sequential run, and the first
# level record starts at 5, not at the edge level.
echo "smoke-dist: distributed run at -lo 5"
"$workdir/cliquer" -lo 5 -no-bound "$workdir/a.el" >"$workdir/ref5.out"
"$workdir/cliquer" -lo 5 -no-bound -stats -dist 2 -ooc "$workdir/run5" \
    -dist-shard-bytes 2048 "$workdir/a.el" >"$workdir/dist5.out" 2>"$workdir/dist5.stats"
cliques "$workdir/ref5.out" >"$workdir/ref5.cliques"
cliques "$workdir/dist5.out" >"$workdir/dist5.cliques"
[ -s "$workdir/ref5.cliques" ] || { echo "smoke-dist: -lo 5 reference emitted no cliques" >&2; exit 1; }
if ! cmp -s "$workdir/ref5.cliques" "$workdir/dist5.cliques"; then
    echo "smoke-dist: -lo 5 clique stream diverges from the sequential reference" >&2
    diff "$workdir/ref5.cliques" "$workdir/dist5.cliques" | head -20 >&2
    exit 1
fi
first=$(grep -m 1 '^level ' "$workdir/dist5.stats" || true)
case "$first" in
"level  5->"*) ;;
*) echo "smoke-dist: -lo 5 first level record is '$first', want it from 5" >&2; exit 1 ;;
esac
echo "smoke-dist: -lo 5 run matches the reference and starts at level 5"

# A worker count below one is a configuration error, not a quiet
# fallback to the out-of-core backend on the same directory.
echo "smoke-dist: -dist -1 is refused"
if "$workdir/cliquer" -lo 3 -no-bound -dist -1 -ooc "$workdir/runneg" \
    "$workdir/a.el" >"$workdir/neg.out" 2>&1; then
    echo "smoke-dist: -dist -1 exited zero" >&2; cat "$workdir/neg.out" >&2; exit 1
fi
if [ -e "$workdir/runneg/dist-manifest.json" ] || grep -Eq '^(done|aborted|interrupted) ' "$workdir/neg.out"; then
    echo "smoke-dist: -dist -1 wrote a run report" >&2; cat "$workdir/neg.out" >&2; exit 1
fi

echo "smoke-dist: kill-a-worker runs"
releaseseen=0
for attempt in 1 2 3 4 5; do
    rundir="$workdir/run$attempt"
    dist_run "dist$attempt" "$rundir" &
    coordpid=$!
    # Workers exist from run start, but a kill only forces a re-lease if
    # the victim holds a lease — so wait until worker-produced output
    # shards appear (names embed the shard index and attempt), the proof
    # that leases are in flight, before picking a victim.
    killed=0
    while kill -0 "$coordpid" 2>/dev/null; do
        if ls "$rundir"/l*-s*-a*.ooc >/dev/null 2>&1; then
            wpid=$(pgrep -f "$workdir/cliquer -worker" 2>/dev/null | head -n 1 || true)
            if [ -n "$wpid" ]; then
                kill -9 "$wpid" 2>/dev/null && killed=1
                break
            fi
        fi
        sleep 0.01
    done
    if ! wait "$coordpid"; then
        echo "smoke-dist: attempt $attempt: coordinator did not survive the worker kill" >&2
        cat "$workdir/dist$attempt.out" >&2
        exit 1
    fi
    check_stream "dist$attempt"
    if [ "$killed" -ne 1 ]; then
        echo "smoke-dist: attempt $attempt: run finished before a worker could be killed; retrying"
        continue
    fi
    if grep -q '"reason"' "$rundir/dist-manifest.json"; then
        if grep -q '"worker_deaths": 0' "$rundir/dist-manifest.json"; then
            echo "smoke-dist: attempt $attempt: report shows a release but no death" >&2
            exit 1
        fi
        echo "smoke-dist: attempt $attempt: worker killed, shard re-leased, stream identical"
        releaseseen=1
        # CI uploads the coordinator's run report as an artifact: the
        # manifest of the kill run, re-leased shard included.
        if [ -n "${DIST_MANIFEST_OUT:-}" ]; then
            cp "$rundir/dist-manifest.json" "$DIST_MANIFEST_OUT"
            echo "smoke-dist: manifest copied to $DIST_MANIFEST_OUT"
        fi
        break
    fi
    echo "smoke-dist: attempt $attempt: kill landed on an idle worker (no lease to re-lease); retrying"
done
if [ "$releaseseen" -ne 1 ]; then
    echo "smoke-dist: no attempt produced a re-leased shard" >&2
    exit 1
fi

echo "smoke-dist: PASS"
