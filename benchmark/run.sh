#!/usr/bin/env bash
# Builds the benchmark inside the checkout and runs it. Everything the
# build and the run write stays under .bench_build/ and benchmark/out/:
# the Go build cache, temporary files, module path and the toolchain's
# own configuration directory are all pointed there.
set -euo pipefail
root=$(pwd)
build="$root/.bench_build"
mkdir -p "$build/gocache" "$build/gotmp" "$build/gopath" "$build/config"
export GOCACHE="$build/gocache" GOTMPDIR="$build/gotmp" GOPATH="$build/gopath" \
	XDG_CONFIG_HOME="$build/config" GOENV=off GOTOOLCHAIN=local GOFLAGS=
go build -C "$root/benchmark" -o "$build/benchmark" .
exec "$build/benchmark" "$@"
