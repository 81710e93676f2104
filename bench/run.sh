#!/usr/bin/env bash
# Builds the benchmark program from source into .bench_build/ at the checkout
# root and runs it there with the arguments given. The program builds the real
# adrdedupd the same way before it measures anything. Everything the Go
# toolchain writes (build cache, module cache, its own config and telemetry
# files) is pointed inside the checkout; there is nothing to download.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build"
export GOCACHE="${GOCACHE:-$build/gocache}"
export GOMODCACHE="${GOMODCACHE:-$build/gomodcache}"
export XDG_CONFIG_HOME="$build/config"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off
go build -C bench -o "$build/adrbench" .
exec "$build/adrbench" "$@"
