#!/bin/sh
# Adaptive-spillover smoke test: run the Table-1 graph through cliquer
# three ways — unconstrained in-core (the reference), hybrid with a
# budget sized to trip the governor mid-run, and hybrid from a parallel
# in-core start — and require (a) that the budgeted runs really spilled,
# (b) that every run printed the byte-identical maximal-clique stream and
# (c) that every run reported one -stats level line per step, with the
# reference's sub-lists, maximal counts and counted work: the spilled step is
# reported once, and a trip cuts a level where a run starts, so the level
# spilled is the one the reference joined.  CI runs this on every push.
set -eu

workdir=$(mktemp -d "${TMPDIR:-/tmp}/repro-smoke-spill-XXXXXX")
trap 'rm -rf "$workdir"' EXIT

echo "smoke-spillover: building"
go build -o "$workdir/graphgen" ./cmd/graphgen
go build -o "$workdir/cliquer" ./cmd/cliquer

echo "smoke-spillover: generating the Table-1 graph"
"$workdir/graphgen" -spec A -out "$workdir/a.el"

# Clique lines are vertex names separated by spaces; everything else the
# tool prints (graph header, summary, spillover notes) starts with a
# known prefix or is indented.
cliques() {
    grep -Ev '^(graph:|maximum clique:|done|interrupted|aborted| )' "$1" || true
}

# One line per -stats level record: the step, its sub-lists, its maximal
# count and its work.
levels() {
    sed -n 's/^level \(.*\): *\([0-9][0-9]*\) sub-lists .* \([0-9][0-9]*\) maximal .* \([0-9][0-9]*\) work .*$/\1 \2 \3 \4/p' "$1"
}

echo "smoke-spillover: unconstrained in-core reference"
"$workdir/cliquer" -lo 3 -no-bound -stats "$workdir/a.el" >"$workdir/ref.out" 2>"$workdir/ref.stats"
cliques "$workdir/ref.out" >"$workdir/ref.cliques"
[ -s "$workdir/ref.cliques" ] || { echo "smoke-spillover: reference emitted no cliques" >&2; exit 1; }
levels "$workdir/ref.stats" >"$workdir/ref.levels"
[ -s "$workdir/ref.levels" ] || { echo "smoke-spillover: reference printed no level records" >&2; exit 1; }
echo "smoke-spillover: reference delivered $(wc -l <"$workdir/ref.cliques") cliques"

# The budget is half of what the reference run itself peaked at: well
# above the CSR adjacency (~100 KB of it), so the governor trips a few
# levels in — a genuine mid-run spill, not an immediate one — whatever
# the bitmap policy in force makes a level weigh.
peak=$(sed -n 's/^  governor peak: \([0-9]*\) bytes.*/\1/p' "$workdir/ref.out")
[ -n "$peak" ] || { echo "smoke-spillover: reference printed no governor peak" >&2; exit 1; }
budget=$((peak / 2))

check_run() {
    name=$1; shift
    "$workdir/cliquer" -stats "$@" "$workdir/a.el" >"$workdir/$name.out" 2>"$workdir/$name.stats"
    grep -q 'spillover: governor tripped generating level' "$workdir/$name.out" || {
        echo "smoke-spillover: $name did not spill (budget $budget)" >&2
        cat "$workdir/$name.out" >&2
        exit 1
    }
    cliques "$workdir/$name.out" >"$workdir/$name.cliques"
    if ! cmp -s "$workdir/ref.cliques" "$workdir/$name.cliques"; then
        echo "smoke-spillover: $name clique stream diverges from the in-core reference" >&2
        diff "$workdir/ref.cliques" "$workdir/$name.cliques" | head -20 >&2
        exit 1
    fi
    levels "$workdir/$name.stats" >"$workdir/$name.levels"
    if ! cmp -s "$workdir/ref.levels" "$workdir/$name.levels"; then
        echo "smoke-spillover: $name level records differ from the reference's (one per step, same sub-lists, maximal counts and work)" >&2
        diff "$workdir/ref.levels" "$workdir/$name.levels" >&2
        exit 1
    fi
    echo "smoke-spillover: $name matches the reference, $(wc -l <"$workdir/$name.levels") level records ($(sed -n 's/.*spillover: governor tripped generating level \([0-9]*\).*/spilled at level \1/p' "$workdir/$name.out"))"
}

echo "smoke-spillover: hybrid run (sequential start, -mem-budget $budget)"
check_run hybrid-seq -lo 3 -no-bound -ooc "$workdir/spill1" -mem-budget "$budget"

echo "smoke-spillover: hybrid run (parallel start, 2 workers)"
check_run hybrid-par -lo 3 -no-bound -workers 2 -ooc "$workdir/spill2" -mem-budget "$budget"

# Spill directories must be empty again: hybrid runs use private temp
# run directories and remove them.
for d in "$workdir/spill1" "$workdir/spill2"; do
    if [ -d "$d" ] && [ -n "$(ls -A "$d")" ]; then
        echo "smoke-spillover: leftover spill files in $d" >&2
        ls -l "$d" >&2
        exit 1
    fi
done

echo "smoke-spillover: PASS"
