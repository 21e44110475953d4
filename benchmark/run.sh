#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root:
#
#   bash benchmark/run.sh --list
#   bash benchmark/run.sh --workload paper-quick --seed 1 --seconds 36 --trace 0
#
# Build outputs, the Go build cache and run scratch files stay under
# .bench_build/ in the checkout; nothing is fetched over the network.
set -euo pipefail

cd "$(dirname "$0")/.."
root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/home"

export GOCACHE="$build/gocache"
export GOTMPDIR="$build/gotmp"
export GOPATH="$build/gopath"
export GOMODCACHE="$build/gopath/pkg/mod"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=
export GOENV=off
# The measured process runs with the Go runtime's default collector
# settings whatever the caller's environment holds.
export GOGC=100
unset GOMEMLIMIT GODEBUG GOMAXPROCS

# HOME and XDG_CONFIG_HOME keep the go command's own files (telemetry
# counters, config) inside the checkout too.
(cd "$root/benchmark" &&
	HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config" go build -o "$build/libra-benchmark" .)
exec "$build/libra-benchmark" "$@"
