#!/usr/bin/env bash
# Builds the benchmark from this checkout's source and runs it with the
# given arguments, e.g.
#
#   bash bench/run.sh --workload sssp-16x16 --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build/ at
# the repository root: the binary, the Go build cache and temp files.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gopath" "$out/tmp"
export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" \
	GOENV=off GOTOOLCHAIN=local GOPROXY=off

(cd "$root/bench" && go build -o "$out/bench" .)
exec "$out/bench" "$@"
