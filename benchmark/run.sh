#!/usr/bin/env bash
# Builds the benchmark from source inside the checkout and runs it with the
# arguments given. Everything the Go toolchain writes (build cache, the
# binary, its own config) stays under .bench_build/ in the checkout.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
cd "$root"
export GOCACHE="$root/.bench_build/gocache"
export XDG_CONFIG_HOME="$root/.bench_build/config"
export GOMODCACHE="$root/.bench_build/gomod" GOPROXY=off GOTOOLCHAIN=local GOWORK=off GOFLAGS=
bin="$root/.bench_build/scaledl-benchmark"
go build -C benchmark -o "$bin" .
exec "$bin" "$@"
