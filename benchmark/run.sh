#!/usr/bin/env bash
# Contract entry point (BENCHMARK.json "command"): builds the harness from
# source into .bench_build/ of the checkout it is started in, then runs it.
# The go build cache is kept inside the checkout too, so a run reads and
# writes nothing outside it.
set -euo pipefail
here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
root=$(dirname "$here")
build="$root/.bench_build"
mkdir -p "$build/bin"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOTOOLCHAIN=local GOFLAGS=-mod=mod
go build -C "$here" -o "$build/bin/benchmark" .
exec "$build/bin/benchmark" -root "$root" "$@"
