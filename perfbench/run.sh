#!/usr/bin/env bash
# Builds the benchmark from source and runs it, passing every argument on:
#
#   bash perfbench/run.sh --workload batch-paper --seed 1 --seconds 15 --trace 0
#   bash perfbench/run.sh steady --runs 10
#
# Run from the root of the repository. The Go build cache, the binary, the
# runs' temporary directories and the last trace all live under
# .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOTMPDIR="$out/tmp"
export XDG_CONFIG_HOME="$out/config"
export GOTOOLCHAIN=local

go build -o "$out/perfbench" ./perfbench
exec "$out/perfbench" "$@"
