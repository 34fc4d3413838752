#!/usr/bin/env bash
# Builds the simulator benchmark from the source tree it sits in and runs
# it. Run from the repository root:
#
#   bash perfbench/run.sh --workload gc-parallel --seed 1 --seconds 10 --trace 0
#
# Everything the build and the runs leave behind (Go build cache, binary,
# digest records, span files) goes under .bench_build/ in the current
# directory; nothing is read from or written to the network.
set -euo pipefail

out=.bench_build/perfbench
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$PWD/$out/gocache" GOPATH="$PWD/$out/gopath" GOTMPDIR="$PWD/$out/tmp"
export GOTOOLCHAIN=local GOPROXY=off GOFLAGS= GOWORK=off
(cd perfbench && go build -o "../$out/perfbench" .)
exec "$out/perfbench" --state-dir "$out" "$@"
