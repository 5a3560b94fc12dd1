#!/usr/bin/env bash
# Builds the benchmark program and mvpearsd from the tree it sits in, then
# runs one workload. Usage, from the repository root:
#
#   bash perfbench/run.sh --workload miss-mix --seed 1 --seconds 15 --trace 0
#
# Every build product, cache and log stays under .bench_build/perfbench.
set -euo pipefail
root="$(pwd)"
if [ ! -f "$root/go.mod" ] || [ ! -d "$root/cmd/mvpearsd" ]; then
	echo "perfbench: run from the repository root (no go.mod or cmd/mvpearsd here)" >&2
	exit 2
fi
out="$root/.bench_build/perfbench"
mkdir -p "$out/gocache" "$out/gotmp" "$out/gopath" "$out/home"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" HOME="$out/home"
export GOFLAGS=-mod=mod GOPROXY=off GOTOOLCHAIN=local GOTELEMETRY=off
go build -o "$out/mvpearsd" ./cmd/mvpearsd
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -root "$root" -work "$out" "$@"
