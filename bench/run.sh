#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments:
#
#   bash bench/run.sh --workload fabric-ecmp --seed 1 --seconds 25 --trace 0
#
# Run it from the repository root. The Go build cache, the build's temporary
# files and the binary all stay under .bench_build there, so a run reads and
# writes nothing outside the checkout but the Go toolchain itself.
set -euo pipefail
out="$PWD/.bench_build"
export GOCACHE="$out/go-cache" GOTMPDIR="$out/tmp" GOTOOLCHAIN=local
mkdir -p "$GOCACHE" "$GOTMPDIR"
go build -o "$out/bench" ./bench
exec "$out/bench" "$@"
