#!/usr/bin/env bash
# Builds the benchmark from source and runs it from the root of a
# checkout:
#
#   bash perfbench/run.sh --workload kv-http --seed 1 --seconds 10 --trace 0
#
# Build products and the Go build cache live in .bench_build and results
# in .bench_out, both under the checkout root, so nothing is written
# outside the checkout. The build log goes to standard error; standard
# output carries only the benchmark's own lines.
set -euo pipefail

root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOPATH="$build/gopath"
export GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS= GOENV=off
go -C perfbench build -o "$build/perfbench" . >&2
exec "$build/perfbench" "$@"
