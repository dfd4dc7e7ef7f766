#!/usr/bin/env bash
# Builds the end-to-end benchmark from source and runs it with the given
# arguments, e.g.
#
#   bash e2ebench/run.sh --workload mbe-affil-par2 --seed 1 --seconds 50 --trace 0
#
# Run it from the root of a checkout. Everything the Go toolchain and the
# benchmark write stays under .bench_build/ in that directory.
set -euo pipefail

root="$PWD"
build="$root/.bench_build"
mkdir -p "$build/tmp" "$build/xdg"

export GOCACHE="$build/gocache"
export GOPATH="$build/gopath"
export GOENV=off
export GOWORK=off
export GOTOOLCHAIN=local
export GOFLAGS=
export TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/xdg"

go -C "$root/e2ebench" build -o "$build/e2ebench" .
exec "$build/e2ebench" "$@"
