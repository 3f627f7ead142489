#!/usr/bin/env bash
# Builds the benchmark and atpgd from the checkout's sources, then runs one
# workload. Run from the root of a checkout:
#
#   bash perfbench/run.sh --workload ga-s298 --seed 1 --seconds 25 --trace 0
#
# Build outputs, the Go build cache, traces and daemon data all stay under
# $CARGO_TARGET_DIR (default .bench_build) inside the checkout.
set -euo pipefail

if [[ ! -f go.mod || ! -d internal/hybrid || ! -d cmd/atpgd || ! -f perfbench/go.mod ]]; then
	echo "perfbench: run from the root of a gahitec checkout (go.mod, internal/, cmd/atpgd)" >&2
	exit 2
fi

root=$(pwd)
out=${CARGO_TARGET_DIR:-.bench_build}
case $out in /*) ;; *) out=$root/$out ;; esac
mkdir -p "$out"

# Keep the toolchain's caches and config inside the checkout, and never let
# it reach for a network toolchain or module.
export GOCACHE=$out/gocache GOPATH=$out/gopath GOMODCACHE=$out/gopath/pkg/mod
export XDG_CONFIG_HOME=$out/config GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOENV=off

go build -o "$out/atpgd" ./cmd/atpgd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2
exec "$out/perfbench" -atpgd "$out/atpgd" -work "$out/perfbench-runs" "$@"
