#!/usr/bin/env bash
# Builds the benchmark from this checkout's sources and runs it with the
# given arguments (see main.go). Run from the repository root:
#
#   bash perfbench/run.sh --workload paper-migrate --seed 1 --seconds 10 --trace 0
#
# Every file the Go toolchain and the benchmark write stays under the
# build directory ($CARGO_TARGET_DIR, default .bench_build).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$build"
build="$(cd "$build" && pwd)"

export GOCACHE="$build/go/cache"
export GOMODCACHE="$build/go/modcache"
export GOPATH="$build/go/path"
export XDG_CONFIG_HOME="$build/go/config"
export XDG_CACHE_HOME="$build/go/xdgcache"
export GOTOOLCHAIN=local
export GOPROXY=off
export GOFLAGS=-mod=readonly

(cd "$here" && go build -o "$build/perfbench" .)
exec "$build/perfbench" --out "$build/perfbench-out" "$@"
