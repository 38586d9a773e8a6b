#!/usr/bin/env bash
# Builds hydrad and the benchmark from the checkout this script sits in,
# then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload analyze-cold --seed 1 --seconds 10 --trace 0
#
# Every build product, cache and scratch file goes under .bench_build/
# at the checkout root; nothing outside the checkout is written.
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp" \
	GOENV=off GOTOOLCHAIN=local GOWORK=off GOFLAGS= CGO_ENABLED=0
cd "$root"
go build -o "$build/hydrad" ./cmd/hydrad
(cd perfbench && go build -o "$build/perfbench" .)
exec "$build/perfbench" -hydrad "$build/hydrad" -workdir "$build" "$@"
