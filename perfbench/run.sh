#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it:
#
#   bash perfbench/run.sh --workload lookup --seed 1 --seconds 12 --trace 0
#
# Run from the repository root. Everything the build and the run write
# (Go build cache, temporary files, the binary, WAL directories, span
# files) stays under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOPATH="$out/gopath" \
	GOTMPDIR="$out/tmp" XDG_CONFIG_HOME="$out/config" \
	GOTOOLCHAIN=local GOPROXY=off GOWORK=off CGO_ENABLED=0
go -C "$root/perfbench" build -o "$out/perfbench" .
exec "$out/perfbench" -dir "$out" "$@"
