#!/usr/bin/env bash
# Builds the benchmark and the hvcd daemon from the checkout it is run in,
# then runs the benchmark with the given flags. Run it from the repository
# root:
#
#   bash bench/run.sh --workload sim-gups --seed 1 --seconds 10 --trace 0
#
# Everything the build writes (binaries, Go build cache) goes under
# .bench_build/ in the repository root.
set -euo pipefail

root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod"
export GOFLAGS=-buildvcs=false GOTOOLCHAIN=local GOWORK=off GOENV=off

(cd "$root/bench" && go build -o "$out/bench" . && go build -o "$out/hvcd" hybridvc/cmd/hvcd)
exec "$out/bench" "$@"
