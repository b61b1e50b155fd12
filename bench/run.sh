#!/usr/bin/env bash
# Builds the end-to-end benchmark from the source tree it sits in and runs it
# with the given arguments, from the repository root. Build products (binary,
# Go build cache) and run scratch files stay under .bench_build/ there, so a
# fresh checkout builds from source with no network access.
#
#   bash bench/run.sh --workload wear-study --seed 1 --seconds 20 --trace 0
#   bash bench/run.sh --seed 1 -o set1.json        # all workloads, one set
#   bash bench/run.sh agree set1.json set2.json
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="$root/.bench_build"
mkdir -p "$build"
export GOCACHE="$build/gocache" GOMODCACHE="$build/gomodcache" \
    GOTOOLCHAIN=local GOPROXY=off GOWORK=off GOFLAGS=

go -C "$root/bench" build -o "$build/qgjbench" .
cd "$root"
exec "$build/qgjbench" "$@"
