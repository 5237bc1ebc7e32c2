#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it, keeping the
# Go build cache, the binary and every run's state under .bench_build.
#
#   bash perfbench/run.sh --workload campaign --seed 1 --seconds 30 --trace 0
#   bash perfbench/run.sh compare A.jsonl B.jsonl
set -euo pipefail
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export GOFLAGS=-mod=mod GOWORK=off GOTOOLCHAIN=local GOPROXY=off
(cd "$root/perfbench" && go build -o "$build/perfbench" .) >&2
cd "$root"
exec "$build/perfbench" "$@"
