#!/usr/bin/env bash
# Builds the benchmark from the checkout's source and runs it. Everything the
# build and the run write stays inside the checkout, under .bench_build/:
# the Go build cache and GOPATH, the compiler's temporary files, the binary
# and the workloads' database files.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."
build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/lfbench" ./bench
exec "$build/lfbench" "$@"
