#!/usr/bin/env bash
# Builds the benchmark from the sources in this checkout and runs it,
# passing every argument through:
#
#   bash perfbench/run.sh --workload dice-stream --seed 1 --seconds 20 --trace 0
#
# Everything the Go toolchain writes (build cache, module cache,
# temporary files, configuration) stays under .bench_build at the
# checkout's root.
set -euo pipefail
here=$(cd "$(dirname "$0")" && pwd)
root=$(dirname "$here")
out="$root/.bench_build"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	XDG_CONFIG_HOME="$out/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off GOPROXY=off
go -C "$here" build -o "$out/perfbench" .
exec "$out/perfbench" "$@"
