#!/usr/bin/env bash
# Builds the benchmark from the sources of the checkout it runs in, then
# runs it with the given arguments. Run it from the repository root:
#
#   bash migperf/run.sh --workload mcnc-verified --seed 1 --seconds 15 --trace 0
#
# The Go build cache and the binary stay under .bench_build, so a run
# writes nothing outside the checkout.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go -C "$root/migperf" build -o "$build/bin/migperf" .
exec "$build/bin/migperf" "$@"
