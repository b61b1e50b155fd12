#!/bin/sh
# Full verification gate: vet, build, and the complete test suite with the
# race detector (the telemetry registry/exposition endpoint and the farm's
# worker pool are the concurrent surfaces; -race keeps them honest).
set -eux

cd "$(dirname "$0")/.."

go vet ./...
# bench/ is its own module, so neither go vet ./... nor go build ./...
# compiles it: vet it here, offline, so a name it calls that the program
# no longer has fails now, not at the hash-pin step at the end.
GOPROXY=off GOWORK=off go -C bench vet ./...
# Formatting gate: gofmt lists every file whose layout differs; any output
# fails the gate and names the files.
unformatted="$(gofmt -l .)"
if [ -n "$unformatted" ]; then
    echo "verify: gofmt would reformat:" >&2
    echo "$unformatted" >&2
    exit 1
fi
go build ./...
go test -race ./...

# Allocation-regression gate: AllocsPerRun is meaningless under -race (the
# instrumentation allocates), so the ceilings in alloc_gate_test.go carry a
# !race build tag and need this separate non-race invocation.
go test -run 'AllocFree|AllocBudget' .

# The full-scale aging-plan package-chain relation takes seconds natively
# and minutes under -race, so its file carries a !race build tag and runs
# here instead.
go test -run '^TestAgingPlanIsIndependentPackageChainsFullScale$' ./internal/farm

# Hot-path benchmark smoke: a fast -benchtime pass proving the dispatch
# benches still run (the full gate with ceilings is scripts/bench.sh).
go test -run '^$' -bench Dispatch -benchtime 100x .

# The farm is the one subsystem whose whole point is concurrency: run its
# suite again explicitly so a filtered invocation of this gate still
# exercises the worker pool, journal appends, and merge under -race.
go test -race ./internal/farm/...

# The shard table is restored from journal lines and uploaded records, the
# logcat decoder turns raw lines into the events both collectors read,
# triage reassembles failure records from them and each shard folds them
# before they leave it, campaign specs arrive as submit bodies and inside
# lease grants, and workers post lease requests and result uploads, and a
# restarting coordinator reads campaign spec sidecars back, and every line
# lands in a chunked logcat ring: fuzz the record and journal decoders, the
# logcat decoder, the ring against its plain-slice model, the collectors,
# the shard fold, the spec planner, the worker envelopes and the sidecar
# restore briefly beyond their seed corpora (one target per run, as -fuzz
# requires).
go test -run '^$' -fuzz '^FuzzDecodeShardRecord$' -fuzztime 5s -parallel 2 ./internal/farm
go test -run '^$' -fuzz '^FuzzLoadJournal$' -fuzztime 5s -parallel 2 ./internal/farm
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5s -parallel 2 ./internal/logcat
go test -run '^$' -fuzz '^FuzzBuffer$' -fuzztime 5s -parallel 2 ./internal/logcat
go test -run '^$' -fuzz '^FuzzCollector$' -fuzztime 5s -parallel 2 ./internal/triage
go test -run '^$' -fuzz '^FuzzFold$' -fuzztime 5s -parallel 2 ./internal/triage
go test -run '^$' -fuzz '^FuzzCampaignSpec$' -fuzztime 5s -parallel 2 ./internal/service
go test -run '^$' -fuzz '^FuzzWorkerEnvelopes$' -fuzztime 5s -parallel 2 ./internal/service
go test -run '^$' -fuzz '^FuzzSpecSidecar$' -fuzztime 5s -parallel 2 ./internal/service

# The study export is rendered by a hand-written writer that must give
# encoding/json's bytes: fuzz it against json.MarshalIndent and
# json.Encoder. Its inputs are multi-kilobyte export documents, which the
# engine would otherwise spend the whole run minimizing byte by byte.
go test -run '^$' -fuzz '^FuzzStudyExportJSON$' -fuzztime 5s -fuzzminimizetime 100x -parallel 2 ./internal/report

# Every event QGJ-UI replays is walked out of Monkey's log, every command
# goes through the adb shell's tokenizer and am's component and URI
# parsers, and every pulled dump through the logcat line parser: fuzz the
# log walker against its slice-building oracle, the shell, tokenize
# against its quoting reference, the two intent parsers and the line
# parser the same way.
go test -run '^$' -fuzz '^FuzzEvents$' -fuzztime 5s -parallel 2 ./internal/monkey
go test -run '^$' -fuzz '^FuzzShellRun$' -fuzztime 5s -parallel 2 ./internal/adb
go test -run '^$' -fuzz '^FuzzTokenize$' -fuzztime 5s -parallel 2 ./internal/adb
go test -run '^$' -fuzz '^FuzzParseURI$' -fuzztime 5s -parallel 2 ./internal/intent
go test -run '^$' -fuzz '^FuzzUnflattenComponent$' -fuzztime 5s -parallel 2 ./internal/intent
go test -run '^$' -fuzz '^FuzzParseLine$' -fuzztime 5s -parallel 2 ./internal/logcat

# Hard invariant: for every pinned seed, each benchmark workload's export
# hash must equal testdata/export_hashes.txt (lines grouped by seed).
# bench/run.sh builds the benchmark from this tree and runs one 1-second
# set per seed, written to its own scratch directory.
pins=testdata/export_hashes.txt
prev=""
grep -v '^#' "$pins" | while read -r seed workload want; do
    set_json=".bench_build/pinned-seed$seed.json"
    if [ "$seed" != "$prev" ]; then
        bash bench/run.sh --seed "$seed" --seconds 1 -o "$set_json" >/dev/null </dev/null
        prev="$seed"
    fi
    got="$(sed -n "/\"name\": \"$workload\"/,/\"hash\"/s/.*\"hash\": \"\([0-9a-f]*\)\".*/\1/p" "$set_json" | head -n 1)"
    if [ "$got" != "$want" ]; then
        echo "verify: seed $seed $workload export hash '$got', pinned $want" >&2
        exit 1
    fi
done

# End-to-end sharded-campaign smoke: a reduced fleet slice through cmd/qgj
# with workers + checkpoint, then killed (journal truncated after two shard
# records) and resumed. Asserts the farm CLI path (flags, journaling,
# resume, triage roll-up, non-zero-injection gate) works outside the
# unit-test harness.
ckpt="$(mktemp -t qgj-verify-XXXXXX.ckpt)"
scrape_log="$(mktemp -t qgj-scrape-XXXXXX.log)"
scrape_pid=""
trap 'rm -f "$ckpt" "$ckpt".*.out "$scrape_log"; [ -n "$scrape_pid" ] && kill "$scrape_pid" 2>/dev/null || true' EXIT
go run ./cmd/qgj -app com.heartwatch.wear -all -quick 8 -progress 0 \
    -workers 4 -checkpoint "$ckpt" >/dev/null
head -n 3 "$ckpt" > "$ckpt.torn" && mv "$ckpt.torn" "$ckpt"
go run ./cmd/qgj -app com.heartwatch.wear -all -quick 8 -progress 0 \
    -workers 4 -checkpoint "$ckpt" -resume >/dev/null
# The whole fleet, whose journal carries crash records and flight windows:
# killed after 39 records and resumed, the stdout (counts, triage buckets)
# must equal the uninterrupted run's byte for byte.
go run ./cmd/qgj -all -quick 8 -progress 0 -workers 2 -checkpoint "$ckpt" \
    > "$ckpt.full.out"
head -n 40 "$ckpt" > "$ckpt.torn" && mv "$ckpt.torn" "$ckpt"
go run ./cmd/qgj -all -quick 8 -progress 0 -workers 2 -checkpoint "$ckpt" \
    -resume > "$ckpt.resumed.out"
cmp "$ckpt.full.out" "$ckpt.resumed.out"
rm -f "$ckpt.full.out" "$ckpt.resumed.out"

# Extension-study smoke: the aging ablations, the rejuvenation
# counterfactual and the input-validation eras through cmd/report. The
# unit tests that run them at full scale are skipped under -short.
go run ./cmd/report -quick 8 -ablations -only tab1 >/dev/null

# UI-study smoke: both QGJ-UI mutation modes (Table V) through cmd/report
# at a small event volume.
go run ./cmd/report -only tab5 -ui-events 2000 >/dev/null

# Device-poke smoke: wearsim, the one CLI no other step runs, sends one
# intent through its adb-style shell and dumps logcat. The dump is captured
# first so that a failing wearsim fails the gate (sh has no pipefail).
wearsim_out="$(go run ./cmd/wearsim -shell "am start -n com.heartwatch.wear/.ui.MainActivity" -logcat)"
printf '%s\n' "$wearsim_out" |
    grep -q 'Delivering to activity cmp=com.heartwatch.wear/.ui.MainActivity'

# Example smoke: every examples/* program builds and runs to completion
# (each exits non-zero on a library error), so the README's entry points
# are exercised, not only compiled.
for ex in examples/*/; do
    go run "./$ex" >/dev/null
done

# Live-scrape smoke: a lingering run serves /metrics, /farm, and /healthz
# on an ephemeral port; curl each while (or just after) the farm runs.
# Asserts the observability surface works end to end — registry
# exposition, farm-wide status board, health probe — not just in httptest.
# scrape_farm checks the background CLI $scrape_pid, which announces its
# address on stderr in $scrape_log, then waits for it to exit. /metrics
# must serve farm_shards_total and a line starting with each argument (a
# metric family, or a grep pattern such as a family with a value).
scrape_farm() {
    addr=""
    for _ in $(seq 1 100); do
        addr="$(sed -n 's#.*telemetry on http://\([^/]*\)/metrics.*#\1#p' "$scrape_log")"
        [ -n "$addr" ] && break
        sleep 0.1
    done
    [ -n "$addr" ] || { echo "verify: no metrics address announced" >&2; cat "$scrape_log" >&2; exit 1; }
    curl -fsS "http://$addr/healthz" | grep -q '^ok$'
    for family in farm_shards_total "$@"; do
        for _ in $(seq 1 50); do
            if curl -fsS "http://$addr/metrics" | grep -q "^$family"; then break; fi
            sleep 0.1
        done
        curl -fsS "http://$addr/metrics" | grep -q "^$family"
    done
    curl -fsS "http://$addr/farm" | grep -q '"shards"'
    wait "$scrape_pid"
    scrape_pid=""
}

# A sharded qgj campaign over the whole wear fleet: 184 shards on 4
# workers, so executors must reset their hot devices in place, and
# /metrics must show a non-zero farm_persist_reuses_total.
go run ./cmd/qgj -all -quick 8 -progress 0 \
    -workers 4 -metrics-addr 127.0.0.1:0 -linger 5s >/dev/null 2>"$scrape_log" &
scrape_pid=$!
scrape_farm 'farm_persist_reuses_total [1-9]'

# The default paths: with no -workers, qgj and report run the paper's
# aging watch, which is a farm plan too, so they feed the same endpoints,
# and the watch meters into the farm registry (device, fuzzer and
# analysis families included).
: > "$scrape_log"
go run ./cmd/qgj -app com.heartwatch.wear -all -quick 8 \
    -metrics-addr 127.0.0.1:0 -linger 3s >/dev/null 2>"$scrape_log" &
scrape_pid=$!
scrape_farm qgj_intents_injected_total wearos_reboots_total

: > "$scrape_log"
go run ./cmd/report -quick 8 -only tab3 -metrics-addr 127.0.0.1:0 -linger 3s >/dev/null 2>"$scrape_log" &
scrape_pid=$!
scrape_farm wearos_reboots_total

# Distributed farm-service smoke: coordinator + networked workers over real
# HTTP and real processes. A victim takes a lease and never heartbeats it,
# which the coordinator cannot tell from a worker killed mid-lease; two
# live workers drain the queue, the reaper reclaims the victim's shard
# after the 2s TTL, and the merged export must be byte-identical to an
# in-process run of the same spec. Also asserts that exporting an
# unfinished campaign fails as "not complete", the /farm campaign filter's
# JSON 404, the service lease metrics, worker drain on SIGTERM, and the
# coordinator's graceful SIGTERM shutdown. Binaries are built first so the
# drain checks signal the workers and farmd themselves, not `go run` wrappers.
bindir="$(mktemp -d -t qgj-svc-bin-XXXXXX)"
svcdata="$(mktemp -d -t farmd-data-XXXXXX)"
svclog="$(mktemp -t farmd-log-XXXXXX.log)"
farmd_pid=""; w1_pid=""; w2_pid=""
trap 'rm -rf "$ckpt" "$scrape_log" "$bindir" "$svcdata" "$svclog"
      for p in $scrape_pid $farmd_pid $w1_pid $w2_pid; do kill "$p" 2>/dev/null || true; done' EXIT

go build -o "$bindir/farmd" ./cmd/farmd
go build -o "$bindir/qgj" ./cmd/qgj

"$bindir/farmd" serve -addr 127.0.0.1:0 -data "$svcdata" -lease-ttl 2s 2>"$svclog" &
farmd_pid=$!
base=""
for _ in $(seq 1 100); do
    base="$(sed -n 's#.*serving on http://\([^ ]*\) .*#http://\1#p' "$svclog")"
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "verify: farmd never announced its address" >&2; cat "$svclog" >&2; exit 1; }

svc_spec="-app com.heartwatch.wear,com.strava.wear -campaigns AB -quick 8"
id="$("$bindir/farmd" submit -addr "$base" $svc_spec)"

# Nothing has run yet: the export must fail, naming the campaign unfinished.
if early="$("$bindir/farmd" export -addr "$base" -id "$id" 2>&1)"; then
    echo "verify: export of an unfinished campaign succeeded" >&2; exit 1
fi
echo "$early" | grep -q 'not complete'

# The victim leases the largest shard and never heartbeats it.
curl -fsS -X POST "$base/api/v1/leases" -d '{"worker":"victim"}' | grep -q '"leaseId"'
"$bindir/qgj" -worker "$base" -worker-name w1 -poll 100ms 2>/dev/null &
w1_pid=$!
"$bindir/qgj" -worker "$base" -worker-name w2 -poll 100ms 2>/dev/null &
w2_pid=$!

"$bindir/farmd" wait -addr "$base" -id "$id" -quiet
"$bindir/farmd" export -addr "$base" -id "$id" -o "$svcdata/distributed.json"

# Workers drain cleanly on SIGTERM (exit 0, leases released not expired).
kill -TERM "$w1_pid" "$w2_pid"
wait "$w1_pid"; wait "$w2_pid"
w1_pid=""; w2_pid=""

# The byte-identical-merge invariant across the wire, kill included.
"$bindir/farmd" local $svc_spec -workers 2 -o "$svcdata/serial.json"
cmp "$svcdata/distributed.json" "$svcdata/serial.json"

# /farm board per campaign, JSON 404 for unknown IDs, lease-expiry metrics.
curl -fsS "$base/farm?campaign=$id" | grep -q '"shards"'
[ "$(curl -s -o /dev/null -w '%{http_code}' "$base/farm?campaign=bogus")" = "404" ]
curl -s "$base/farm?campaign=bogus" | grep -q '"error"'
curl -fsS "$base/metrics" | grep -q '^service_leases_expired_total [1-9]'
curl -fsS "$base/api/v1/campaigns/$id/metrics" | grep -q '^campaign_shards_done_total 4'

# Fault-injection campaign smoke: campaign F through the same coordinator,
# with another lease abandoned mid-shard. The OS-fault schedule is keyed on dispatch
# sequence numbers, so the reclaimed shard's re-execution and the in-process
# run must both produce byte-identical exports, graceful-degradation
# verdicts included.
fault_spec="-app com.heartwatch.wear,com.strava.wear -campaigns F -quick 8"
fid="$("$bindir/farmd" submit -addr "$base" $fault_spec)"
curl -fsS -X POST "$base/api/v1/leases" -d '{"worker":"fault-victim"}' | grep -q '"leaseId"'
"$bindir/qgj" -worker "$base" -worker-name fault-w1 -poll 100ms 2>/dev/null &
w1_pid=$!
"$bindir/farmd" wait -addr "$base" -id "$fid" -quiet
"$bindir/farmd" export -addr "$base" -id "$fid" -o "$svcdata/fault-distributed.json"
kill -TERM "$w1_pid"
wait "$w1_pid"
w1_pid=""
"$bindir/farmd" local $fault_spec -workers 2 -o "$svcdata/fault-serial.json"
cmp "$svcdata/fault-distributed.json" "$svcdata/fault-serial.json"
grep -q '"faultResilience"' "$svcdata/fault-distributed.json"

# Coordinator drains on SIGTERM: journals flushed, clean exit.
kill -TERM "$farmd_pid"
wait "$farmd_pid"
farmd_pid=""
grep -q 'drained' "$svclog"

# Restart on the same data dir: both campaigns come back from their
# sidecars and journals, re-merge, and list complete in submission order;
# the re-merged export equals the one served before the restart.
: > "$svclog"
"$bindir/farmd" serve -addr 127.0.0.1:0 -data "$svcdata" 2>"$svclog" &
farmd_pid=$!
base=""
for _ in $(seq 1 100); do
    base="$(sed -n 's#.*serving on http://\([^ ]*\) .*#http://\1#p' "$svclog")"
    [ -n "$base" ] && break
    sleep 0.1
done
[ -n "$base" ] || { echo "verify: restarted farmd never announced its address" >&2; cat "$svclog" >&2; exit 1; }
"$bindir/farmd" wait -addr "$base" -id "$id" -quiet
"$bindir/farmd" wait -addr "$base" -id "$fid" -quiet
listed="$("$bindir/farmd" list -addr "$base" | awk '{print $1, $2}')"
[ "$listed" = "$(printf '%s complete\n%s complete' "$id" "$fid")" ] ||
    { echo "verify: restarted listing: $listed" >&2; exit 1; }
"$bindir/farmd" status -addr "$base" -id "$id" | grep -q '"state": "complete"'
"$bindir/farmd" export -addr "$base" -id "$id" -o "$svcdata/restarted.json"
cmp "$svcdata/distributed.json" "$svcdata/restarted.json"
kill -TERM "$farmd_pid"
wait "$farmd_pid"
farmd_pid=""

# The coordinator has one configuration, the durable one: serve without
# -data must refuse to start.
if nodata="$(timeout 10 "$bindir/farmd" serve -addr 127.0.0.1:0 2>&1)"; then
    echo "verify: farmd serve without -data started" >&2; exit 1
fi
echo "$nodata" | grep -q 'data dir'
