#!/usr/bin/env bash
# Builds the platform benchmark from source and runs it with the given
# arguments, from the root of a checkout:
#
#   bash platbench/run.sh --workload suite-sweep --seed 1 --seconds 10 --trace 0
#
# Every build artifact, the Go build cache, Go's per-user files (HOME) and
# every temporary file stay under .bench_build/ in the checkout.
set -euo pipefail
root="$(pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build/gocache" "$build/tmp" "$build/home"
export HOME="$build/home" XDG_CONFIG_HOME="$build/home/.config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOPATH="$build/gopath" GOTOOLCHAIN=local GOWORK=off
go build -C platbench -o "$build/platbench" .
exec "$build/platbench" -build "$build" "$@"
