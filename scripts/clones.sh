#!/bin/sh
# Clone scan: is there a twin left?  Over the non-test Go files outside
# benchmark/, drop blank lines, comment-only lines and lines that are only
# } { ) return or return nil, then compare every window of 6 consecutive
# remaining lines verbatim (indentation ignored).  Windows that occur at
# more than one site are grouped by the pair of files they occur in, and
# every pair sharing at least MIN distinct windows is printed with its
# count — a cluster.  The two mains' signal/timeout preamble is the one cluster
# that stays (sharing it would cost a package).
#
# usage: scripts/clones.sh [DIR] [MIN]   (default: the repository root, 5)
set -eu
cd "${1:-$(dirname "$0")/..}"
find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
    ! -path './.bench_build/*' ! -path '*/testdata/*' | sort |
xargs awk -v min="${2:-5}" '
    FNR == 1 { n = 0 }
    {
        line = $0
        gsub(/^[ \t]+|[ \t]+$/, "", line)
        if (line == "" || line ~ /^\/\// || line ~ /^[{})]$/ || line == "return" || line == "return nil") next
        buf[++n] = line; at[n] = FNR
        if (n < 6) next
        w = buf[n-5] "\n" buf[n-4] "\n" buf[n-3] "\n" buf[n-2] "\n" buf[n-1] "\n" buf[n]
        site = FILENAME ":" at[n-5]
        if (w in first) {
            split(first[w], o, ":")
            pair = (o[1] < FILENAME ? o[1] " <-> " FILENAME : FILENAME " <-> " o[1])
            if (o[1] == FILENAME) pair = FILENAME " (itself)"
            if (!((w, pair) in seen)) { seen[w, pair] = 1; count[pair]++ }
            if (!(pair in where)) where[pair] = first[w] " ~ " site
        } else first[w] = site
    }
    END {
        for (p in count) if (count[p] >= min) { printf "%3d windows  %s  (first: %s)\n", count[p], p, where[p]; found++ }
        if (!found) print "no cross-site cluster of " min " or more windows"
    }' | sort -rn
