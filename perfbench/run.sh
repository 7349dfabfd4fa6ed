#!/usr/bin/env bash
# Builds the benchmark from source into .bench_build/ under the current
# directory (the repository root) and runs it with the given arguments,
# for example:
#
#   bash perfbench/run.sh --workload web-exact --seed 1 --seconds 25 --trace 0
#
# The Go build cache and temporary files stay inside .bench_build/ too.
set -euo pipefail
root="$(pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp" "$out/bin"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOMODCACHE="$out/gomod" GOTOOLCHAIN=local GOWORK=off GOFLAGS=
bin="$out/bin/perfbench"
go -C "$root/perfbench" build -o "$bin.$$" .
mv -f "$bin.$$" "$bin"
exec "$bin" "$@"
