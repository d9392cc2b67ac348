#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given flags:
#
#   bash perfbench/run.sh --workload web --seed 1 --seconds 20 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, binary, scratch data, span dumps) stays under
# .bench_build/ in the current directory.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOMODCACHE="$out/gomodcache"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local
export GOENV=off

go -C "$root/perfbench" build -buildvcs=false -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
