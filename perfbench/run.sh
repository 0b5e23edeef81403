#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it; all
# arguments pass through (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload fleet-mnist --seed 1 --seconds 30 --trace 0
#
# Build outputs, the Go build cache and temporary files stay under
# .bench_build/ in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
go -C perfbench build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
