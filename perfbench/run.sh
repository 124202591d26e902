#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash perfbench/run.sh --workload fig3-lattice --seed 1 --seconds 15 --trace 0
#
# Every build product (the binary, the Go build cache) and every file the
# benchmark writes stays under the build directory inside the checkout.
set -euo pipefail

root=$(pwd)
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in
/*) ;;
*) build="$root/$build" ;;
esac
mkdir -p "$build"

# The go command keeps its cache, module cache, settings and telemetry
# counters under the build directory too.
export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOWORK=off

go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
