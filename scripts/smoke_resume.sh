#!/bin/sh
# Resume-after-kill smoke test: run the out-of-core enumerator with a
# checkpoint and a wall-clock timeout that kills it mid-run, then resume
# the checkpoint and verify the run completes with the same total clique
# count as an uninterrupted reference run.  CI runs this on every push.
#
# The kill timeout is derived from the measured wall time of the
# reference run on this machine (not hard-coded), and the kill is
# retried with a halved timeout if the run outruns it — so the gate
# does not flake across faster or slower runners.
set -eu

workdir=$(mktemp -d "${TMPDIR:-/tmp}/repro-smoke-XXXXXX")
trap 'rm -rf "$workdir"' EXIT

echo "smoke-resume: building"
go build -o "$workdir/graphgen" ./cmd/graphgen
go build -o "$workdir/cliquer" ./cmd/cliquer

echo "smoke-resume: generating the Table-1 graph"
"$workdir/graphgen" -spec A -out "$workdir/a.el"

echo "smoke-resume: uninterrupted reference run"
start_ns=$(date +%s%N)
"$workdir/cliquer" -lo 3 -no-bound -count \
    -ooc "$workdir/ref" -workers 2 \
    "$workdir/a.el" >"$workdir/ref.out"
ref_ms=$(( ($(date +%s%N) - start_ns) / 1000000 ))
ref_count=$(sed -n 's/^done (out-of-core): \([0-9]*\) maximal cliques.*/\1/p' "$workdir/ref.out")
echo "smoke-resume: reference found $ref_count maximal cliques in ${ref_ms}ms"

# Kill mid-run: start at half the measured reference time and halve on
# every attempt that finishes before the timeout.  The first checkpoint
# is committed right after the (fast) seed spill, so shorter timeouts
# only make the kill land earlier, not miss the manifest.
timeout_ms=$(( ref_ms / 2 ))
[ "$timeout_ms" -lt 40 ] && timeout_ms=40
killed=0
for attempt in 1 2 3 4 5; do
    ckdir="$workdir/ck$attempt"
    echo "smoke-resume: checkpointed run, kill attempt $attempt (-timeout ${timeout_ms}ms)"
    if "$workdir/cliquer" -lo 3 -no-bound -count \
        -ooc "$ckdir" -ooc-checkpoint -workers 2 \
        -timeout "${timeout_ms}ms" \
        "$workdir/a.el" >"$workdir/kill.out" 2>&1; then
        echo "smoke-resume: run finished before the timeout; retrying with a shorter one"
        timeout_ms=$(( timeout_ms / 2 ))
        [ "$timeout_ms" -lt 10 ] && break
        continue
    fi
    killed=1
    break
done
if [ "$killed" -ne 1 ]; then
    echo "smoke-resume: could not kill the run mid-flight even at ${timeout_ms}ms" >&2
    exit 1
fi
if [ ! -f "$ckdir/ooc-manifest.json" ]; then
    echo "smoke-resume: killed run left no checkpoint manifest" >&2
    cat "$workdir/kill.out" >&2
    exit 1
fi
killed_count=$(sed -n 's/^interrupted (out-of-core): \([0-9]*\) maximal cliques.*/\1/p' "$workdir/kill.out")
echo "smoke-resume: killed after delivering ${killed_count:-0} cliques"

echo "smoke-resume: resuming the checkpoint"
"$workdir/cliquer" -lo 3 -no-bound -count \
    -resume "$ckdir" -workers 2 \
    "$workdir/a.el" >"$workdir/resume.out"
grep -q "spill (resumed):" "$workdir/resume.out"
resumed_count=$(sed -n 's/^done (out-of-core): \([0-9]*\) maximal cliques.*/\1/p' "$workdir/resume.out")
echo "smoke-resume: resumed run delivered $resumed_count cliques"

if [ -f "$ckdir/ooc-manifest.json" ]; then
    echo "smoke-resume: completed resume left its manifest behind" >&2
    exit 1
fi

# The resumed run re-emits the interrupted level, so killed + resumed
# covers the reference count with a bounded overlap:
#   resumed <= reference  and  killed + resumed >= reference.
total=$((${killed_count:-0} + resumed_count))
if [ "$resumed_count" -gt "$ref_count" ] || [ "$total" -lt "$ref_count" ]; then
    echo "smoke-resume: counts do not reconcile: killed=${killed_count:-0} resumed=$resumed_count reference=$ref_count" >&2
    exit 1
fi
echo "smoke-resume: OK (killed=${killed_count:-0} resumed=$resumed_count reference=$ref_count)"
