#!/usr/bin/env bash
# Entry point named by BENCHMARK.json: builds the benchmark from source into
# .bench_build/ at the checkout root (Go build cache, module path and temp
# files included, so nothing is written outside the checkout) and runs it
# with the arguments given.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="$(dirname "$here")/.bench_build"
mkdir -p "$build/bin" "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOFLAGS=-mod=readonly GOTOOLCHAIN=local GOPROXY=off
go build -C "$here" -o "$build/bin/bdbench" .
exec "$build/bin/bdbench" "$@"
