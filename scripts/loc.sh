#!/bin/sh
# Code size per package group: non-test Go lines that are neither blank
# nor comment-only, with benchmark/ (a module of its own) left out.  A
# group is the first two path elements (internal/ooc, cmd/cliquer) or
# "." for the facade files at the root.  Run it at two commits and diff
# the tables: "net lines removed" is this command, not a hand count.
#
# usage: scripts/loc.sh [DIR]      (default: the repository root)
set -eu
cd "${1:-$(dirname "$0")/..}"

find . -name '*.go' ! -name '*_test.go' ! -path './benchmark/*' \
    ! -path './.bench_build/*' ! -path '*/testdata/*' | sort |
while read -r f; do
    group=$(echo "$f" | awk -F/ 'NF <= 2 { print "."; next } { print $2 "/" $3 }')
    # Count a line unless it is blank, starts a // comment, or lies
    # inside a /* */ block.
    n=$(awk '
        inblock { if (index($0, "*/")) inblock = 0; next }
        /^[ \t]*$/ || /^[ \t]*\/\// { next }
        /^[ \t]*\/\*/ { if (!index($0, "*/")) inblock = 1; next }
        { n++ }
        END { print n + 0 }' "$f")
    echo "$group $n"
done | awk '
    { lines[$1] += $2; total += $2 }
    END {
        for (g in lines) printf "%-28s %6d\n", g, lines[g] | "sort"
        close("sort")
        printf "%-28s %6d\n", "total", total
    }'
