#!/usr/bin/env bash
# Builds the benchmark from source and runs it, from the root of a checkout:
#
#   bash bench/run.sh [-workload W] [-seed N] [-seconds S] [-trace 0|1] [-aa] [-quick]
#
# Everything the build and the run write — the Go build cache, temporary
# files, the binary and the span file of a traced run — goes under
# .bench_build/ in the checkout.
set -euo pipefail

here=$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)
build=$(dirname "$here")/.bench_build
mkdir -p "$build/tmp"

export GOCACHE="$build/gocache" GOPATH="$build/gopath" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOTOOLCHAIN=local GOWORK=off

go -C "$here" build -o "$build/fgcs-bench" .
exec "$build/fgcs-bench" "$@"
