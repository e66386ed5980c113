#!/usr/bin/env bash
# Builds the benchmark from this checkout and runs it with the given flags:
#   bash perfbench/run.sh --workload replay-decay8m --seed 1 --seconds 15 --trace 0
# Run it from the root of the checkout. Everything it builds or writes stays
# under the build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

# Keep the Go toolchain's cache, module path and telemetry inside the build
# directory, and never let it fetch another toolchain.
export GOCACHE="$build/gocache" GOPATH="$build/gopath" XDG_CONFIG_HOME="$build/config" \
	GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOENV=off
go -C perfbench build -o "$build/perfbench" .
exec "$build/perfbench" --out "$build" "$@"
