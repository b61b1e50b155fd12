#!/bin/sh
# Benchmark-regression gate for the injection hot path and the farm's
# persistent executor.
#
# Runs the hot-path benchmark suite (with the per-intent campaign-mix
# dispatch benchmark) plus the eight-worker farm run and the device-level
# shard-boot and unit-reset microbenchmark pairs, writes the current
# numbers next to the frozen pre-optimization baselines to the JSON file
# named by its one argument, and fails if any gated benchmark regresses
# past its ceiling or the persistent executor's per-unit reset-over-clone
# speedup drops under its 3x floor. The ceilings are
# set from the perf passes that introduced them, with ~40-70% headroom for
# machine-to-machine variance; they exist to catch order-of-magnitude
# regressions (a reintroduced per-intent allocation, an unbatched counter,
# an eagerly allocated clone ring), not single-digit drift.
#
# Usage: scripts/bench.sh output.json
# (a relative output path is taken from the repository root)
set -eu

if [ $# -ne 1 ]; then
    echo "usage: scripts/bench.sh output.json" >&2
    exit 2
fi
out="$1"

cd "$(dirname "$0")/.."

raw="$(mktemp -t qgj-bench-XXXXXX.txt)"
trap 'rm -f "$raw"' EXIT

# -count=3: benchgate keeps per-benchmark minima, the robust estimator
# under scheduler noise (the telemetry-delta gate compares two ~300ns
# numbers and would flake on single runs).
go test -run '^$' \
    -bench 'CampaignInstrumented|CampaignNoTelemetry|TableI_CampaignGeneration|IntentString|LogcatAppend|LogcatFormatParse|DispatchCampaignMix' \
    -benchmem -benchtime=1s -count=3 . | tee "$raw"

# The dispatch quartet feeds three ratio gates (telemetry delta <=8%,
# recorder delta <=5%, dormant fault-hook delta <=5%) comparing ~300ns
# numbers. -count=N would run each benchmark's repetitions back to back, so
# slow thermal/frequency drift lands entirely on whichever benchmark runs
# last and biases the ratios; eight separate short invocations interleave
# the quartet instead, and benchgate's per-bench minima then compare
# samples taken under like conditions (eight rounds, not five: on a shared
# host the frequency shifts span whole invocations, and each extra round is
# another chance for every member of the quartet to sample the same fast
# window instead of one of them minima-ing on a window the others missed).
for _ in 1 2 3 4 5 6 7 8; do
    go test -run '^$' -bench 'DispatchNoEffect|DispatchNoTelemetry|DispatchRecorder|DispatchFaultHooks' \
        -benchmem -benchtime=1s -count=1 . | tee -a "$raw"
done

# Farm8Persist is held under its ceilings; the shard-boot pair isolates the
# device-level clone cost and the unit pair feeds the per-unit persist
# speedup floor.
go test -run '^$' -bench 'Farm8Persist' \
    -benchmem -benchtime=1s -count=3 ./internal/farm | tee -a "$raw"
go test -run '^$' -bench 'ShardBootFresh|ShardBootClone|UnitReset|UnitClone' \
    -benchmem -benchtime=1s -count=3 ./internal/wearos | tee -a "$raw"

# The farm-service queue pair: the lease cycle and the durable
# (fsynced) result upload round trip.
go test -run '^$' -bench 'QueueLeaseCycle|QueueResultRoundTrip' \
    -benchmem -benchtime=1s -count=3 ./internal/service | tee -a "$raw"

go run ./scripts/benchgate -input "$raw" -output "$out"
echo "wrote $out"
