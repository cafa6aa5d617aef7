#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository root:
#
#   bash perfbench/run.sh --workload labs-explore --seed 1 --seconds 30 --trace 0
#
# Every argument is passed on to the benchmark. The build cache, the binary,
# scratch files and traces all stay under .bench_build/ in the current
# directory.
set -euo pipefail

out="$(pwd)/.bench_build"
mkdir -p "$out/gocache" "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp" \
	GOPATH="$out/gopath" GOMODCACHE="$out/gopath/pkg/mod" \
	GOENV=off GOWORK=off GOTOOLCHAIN=local GOPROXY=off GOFLAGS=-mod=mod

go build -C perfbench -o "$out/perfbench" . >&2
exec "$out/perfbench" "$@"
