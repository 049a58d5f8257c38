#!/bin/sh
# Paired benchmark runs, parent against change (choosing-metrics §8): for
# each pair, one `benchmark/run.sh --trace 0` run on the base commit and
# one on this checkout, same workload, same fresh seed, the side that
# goes first alternating — then, per end-to-end metric of BENCHMARK.json,
# each side's median and quartiles, the pairs the change won (ties count
# for neither side) and the verdict: "gain" when the change wins at
# least nine tenths of the pairs and the medians differ by more than the
# distance between the base's own quartiles, "loss" for the mirror image,
# "unresolved" otherwise.  The base is checked out into a git worktree
# under .bench_build/ (removed on exit); both sides build themselves, so
# benchmark/ is used exactly as the driver uses it.
#
# usage: scripts/bench_pair.sh WORKLOAD [PAIRS [BASE [SEED]]]
#   WORKLOAD  a name from benchmark/README.md, e.g. hybrid-c75
#   PAIRS     number of pairs (default 10)
#   BASE      the commit to compare against (default HEAD~1), or a
#             directory that already holds a checkout of it
#   SEED      seed of the first pair; pair i runs seed SEED+i-1 (default 1)
set -eu

workload=${1:?usage: scripts/bench_pair.sh WORKLOAD [PAIRS [BASE [SEED]]]}
pairs=${2:-10}
base=${3:-HEAD~1}
seed0=${4:-1}
root=$(cd "$(dirname "$0")/.." && pwd)
cd "$root"

seconds=$(sed -n 's/.*"run_seconds": *\([0-9.]*\).*/\1/p' BENCHMARK.json)
# "name better" for every end-to-end metric.
metrics=$(awk '
    /"end_to_end"/ { on = 1 }
    on && /^ *\]/ { exit }
    on && /"name"/ { gsub(/[",]/, ""); name = $2 }
    on && /"better"/ { gsub(/[",]/, ""); print name, $2 }' BENCHMARK.json)

out=$(mktemp -d "${TMPDIR:-/tmp}/repro-bench-pair-XXXXXX")
if [ -d "$base" ]; then
    basedir=$(cd "$base" && pwd)
    trap 'rm -rf "$out"' EXIT
else
    basedir=$root/.bench_build/pair-base
    mkdir -p "$root/.bench_build"
    git worktree remove --force "$basedir" 2>/dev/null || true
    git worktree add --quiet --detach "$basedir" "$base"
    trap 'rm -rf "$out"; git worktree remove --force "$basedir"' EXIT
fi
echo "bench-pair: $workload, $pairs pairs x ${seconds}s, base $base ($(git -C "$basedir" rev-parse --short HEAD 2>/dev/null || echo not a git checkout)) vs this checkout"

# run SIDE DIR SEED: one run; appends "metric value" lines to $out/SIDE.
run() {
    line=$(cd "$2" && bash benchmark/run.sh --workload "$workload" --seed "$3" --seconds "$seconds" --trace 0 | tail -n 1)
    case $line in
    '{"correct":true,'*'"failed":0,'*) ;;
    *) echo "bench-pair: $1 run (seed $3) was not correct with zero failures: $line" >&2; exit 1 ;;
    esac
    echo "$line" | tr '{},' '\n\n\n' |
        sed -n '/^"metrics":$/d; s/^"\([a-z0-9_.]*\)":$/\1/p; s/^"value":\(.*\)$/\1/p' |
        paste -d' ' - - >>"$out/$1"
}

i=1
while [ "$i" -le "$pairs" ]; do
    seed=$((seed0 + i - 1))
    if [ $((i % 2)) -eq 1 ]; then
        run base "$basedir" "$seed"; run change "$root" "$seed"
    else
        run change "$root" "$seed"; run base "$basedir" "$seed"
    fi
    echo "bench-pair: pair $i/$pairs (seed $seed) done"
    i=$((i + 1))
done

printf '%-12s %-32s %-32s %-7s %s\n' metric "base median [q1, q3]" "change median [q1, q3]" wins verdict
echo "$metrics" | while read -r name better; do
    awk -v name="$name" -v better="$better" -v pairs="$pairs" '
        function quantile(v, n, p,    h, lo) {
            h = (n - 1) * p + 1; lo = int(h)
            return lo >= n ? v[n] : v[lo] + (h - lo) * (v[lo + 1] - v[lo])
        }
        function sorted(src, dst, n,    i, j, t) {
            for (i = 1; i <= n; i++) dst[i] = src[i]
            for (i = 2; i <= n; i++)
                for (j = i; j > 1 && dst[j - 1] > dst[j]; j--) { t = dst[j]; dst[j] = dst[j - 1]; dst[j - 1] = t }
        }
        $1 == name { if (FILENAME ~ /base$/) b[++nb] = $2 + 0; else c[++nc] = $2 + 0 }
        END {
            for (i = 1; i <= pairs; i++) {
                d = (better == "lower") ? b[i] - c[i] : c[i] - b[i]
                if (d > 0) won++; else if (d < 0) lost++
            }
            sorted(b, sb, nb); sorted(c, sc, nc)
            bm = quantile(sb, nb, .5); cm = quantile(sc, nc, .5)
            iqr = quantile(sb, nb, .75) - quantile(sb, nb, .25)
            gap = (better == "lower") ? bm - cm : cm - bm
            verdict = "unresolved"
            if (won >= .9 * pairs && gap > iqr) verdict = "gain"
            if (lost >= .9 * pairs && -gap > iqr) verdict = "loss"
            printf "%-12s %-32s %-32s %-7s %s (%+.1f%%)\n", name,
                sprintf("%.4g [%.4g, %.4g]", bm, quantile(sb, nb, .25), quantile(sb, nb, .75)),
                sprintf("%.4g [%.4g, %.4g]", cm, quantile(sc, nc, .25), quantile(sc, nc, .75)),
                won + 0 "/" pairs, verdict, bm ? 100 * (cm - bm) / bm : 0
        }' "$out/base" "$out/change"
done
