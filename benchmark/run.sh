#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the arguments given
# (BENCHMARK.json's command). Everything the build writes — Go's build and
# module caches, the binary — stays under .bench_build in the checkout.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTOOLCHAIN=local
go build -C "$root/benchmark" -o "$out/benchmark" .
exec "$out/benchmark" "$@"
