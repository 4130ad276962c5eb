#!/usr/bin/env bash
# Builds topkd and the benchmark from the checkout's sources into
# .bench_build, then runs one workload:
#
#   bash perfbench/run.sh --workload churn --seed 1 --seconds 8 --trace 0
#
# Every file the build and the run touch stays inside the checkout.
set -euo pipefail

root=$(pwd)
test -f "$root/go.mod" || { echo "run.sh: run from the repository root (no go.mod here)" >&2; exit 2; }
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gomodcache" "$out/tmp" "$out/config"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomodcache" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
# XDG_CONFIG_HOME keeps the go command's telemetry counters in the checkout.
export XDG_CONFIG_HOME="$out/config"
export GOENV=off GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off GOWORK=off CGO_ENABLED=0

go build -o "$out/topkd" ./cmd/topkd
(cd perfbench && go build -o "$out/perfbench" .)

# The generator, the in-process replays and the items workload run on
# CPU 1; topkd is pinned to CPU 0 by the benchmark itself.
exec taskset -c 1 "$out/perfbench" -topkd "$out/topkd" -work "$out" "$@"
