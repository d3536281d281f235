#!/usr/bin/env bash
# Builds perfbench from source and runs it with the given arguments:
#
#   bash perfbench/run.sh --workload steady-waxman100 --seed 1 --seconds 20 --trace 0
#
# Run it from the repository root. The Go build cache, the binary and
# the benchmark's scratch files (write-ahead logs) all live under
# .bench_build/ there, so nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
mkdir -p "$out/gocache" "$out/gomod" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod GOWORK=off GOENV=off
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" --work "$out" "$@"
