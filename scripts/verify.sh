#!/bin/sh
# Full verification gate: vet, build, and the complete test suite with the
# race detector (the telemetry registry/exposition endpoint and the farm's
# worker pool are the concurrent surfaces; -race keeps them honest).
set -eux

cd "$(dirname "$0")/.."

go vet ./...
go build ./...
go test -race ./...

# Allocation-regression gate: AllocsPerRun is meaningless under -race (the
# instrumentation allocates), so the ceilings in alloc_gate_test.go carry a
# !race build tag and need this separate non-race invocation.
go test -run 'AllocFree|AllocBudget' .

# Hot-path benchmark smoke: a fast -benchtime pass proving the dispatch
# benches still run (the full gate with ceilings is scripts/bench.sh).
go test -run '^$' -bench Dispatch -benchtime 100x .

# The farm is the one subsystem whose whole point is concurrency: run its
# suite again explicitly so a filtered invocation of this gate still
# exercises the worker pool, journal appends, and merge under -race.
go test -race ./internal/farm/...

# The shard table is restored from journal lines and uploaded records, the
# logcat decoder turns raw lines into the events both collectors read,
# triage reassembles failure records from them, campaign specs arrive as
# submit bodies and inside lease grants, and workers post lease requests and
# result uploads, and a restarting coordinator reads archived campaigns'
# info snapshots back: fuzz the record and journal decoders, the logcat
# decoder, the collectors, the spec planner, the worker envelopes and the
# archive restore briefly beyond their seed corpora (one target per run, as
# -fuzz requires).
go test -run '^$' -fuzz '^FuzzDecodeShardRecord$' -fuzztime 5s -parallel 2 ./internal/farm
go test -run '^$' -fuzz '^FuzzLoadJournal$' -fuzztime 5s -parallel 2 ./internal/farm
go test -run '^$' -fuzz '^FuzzDecode$' -fuzztime 5s -parallel 2 ./internal/logcat
go test -run '^$' -fuzz '^FuzzCollector$' -fuzztime 5s -parallel 2 ./internal/triage
go test -run '^$' -fuzz '^FuzzCampaignSpec$' -fuzztime 5s -parallel 2 ./internal/service
go test -run '^$' -fuzz '^FuzzWorkerEnvelopes$' -fuzztime 5s -parallel 2 ./internal/service
go test -run '^$' -fuzz '^FuzzArchivedInfo$' -fuzztime 5s -parallel 2 ./internal/service

# End-to-end sharded-campaign smoke: a reduced fleet slice through cmd/qgj
# with workers + checkpoint, then killed (journal truncated after two shard
# records) and resumed. Asserts the farm CLI path (flags, journaling,
# resume, triage roll-up, non-zero-injection gate) works outside the
# unit-test harness.
ckpt="$(mktemp -t qgj-verify-XXXXXX.ckpt)"
scrape_log="$(mktemp -t qgj-scrape-XXXXXX.log)"
scrape_pid=""
trap 'rm -f "$ckpt" "$scrape_log"; [ -n "$scrape_pid" ] && kill "$scrape_pid" 2>/dev/null || true' EXIT
go run ./cmd/qgj -app com.heartwatch.wear -all -quick 8 -progress 0 \
    -workers 4 -checkpoint "$ckpt" >/dev/null
head -n 3 "$ckpt" > "$ckpt.torn" && mv "$ckpt.torn" "$ckpt"
go run ./cmd/qgj -app com.heartwatch.wear -all -quick 8 -progress 0 \
    -workers 4 -checkpoint "$ckpt" -resume >/dev/null

# Extension-study smoke: the aging ablations, the rejuvenation
# counterfactual and the input-validation eras through cmd/report. The
# unit tests that run them at full scale are skipped under -short.
go run ./cmd/report -quick 8 -ablations -only tab1 >/dev/null

# UI-study smoke: both QGJ-UI mutation modes (Table V) through cmd/report
# at a small event volume.
go run ./cmd/report -only tab5 -ui-events 2000 >/dev/null

# Live-scrape smoke: a lingering run serves /metrics, /farm, and /healthz
# on an ephemeral port; curl each while (or just after) the farm runs.
# Asserts the observability surface works end to end — registry
# exposition, farm-wide status board, health probe — not just in httptest.
# scrape_farm checks the background CLI $scrape_pid, which announces its
# address on stderr in $scrape_log, then waits for it to exit. /metrics
# must serve farm_shards_total and every metric family named in the
# arguments.
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

# A sharded qgj campaign.
go run ./cmd/qgj -app com.heartwatch.wear -all -quick 8 -progress 0 \
    -workers 4 -metrics-addr 127.0.0.1:0 -linger 5s >/dev/null 2>"$scrape_log" &
scrape_pid=$!
scrape_farm

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
# HTTP and real processes. A victim worker takes a lease and is SIGKILLed
# while provably holding it (-throttle parks it between lease and
# execution); two live workers drain the queue, the reaper reclaims the
# victim's shard after the 2s TTL, and the merged export must be
# byte-identical to an in-process run of the same spec. Also asserts the
# /farm campaign filter's JSON 404, the service lease metrics, worker drain
# on SIGTERM, and the coordinator's graceful SIGTERM shutdown.
# Binaries are built first: `go run` wrappers would orphan the child on
# SIGKILL and the victim must die mid-lease for real.
bindir="$(mktemp -d -t qgj-svc-bin-XXXXXX)"
svcdata="$(mktemp -d -t farmd-data-XXXXXX)"
svclog="$(mktemp -t farmd-log-XXXXXX.log)"
victimlog="$(mktemp -t farmd-victim-XXXXXX.log)"
farmd_pid=""; victim_pid=""; w1_pid=""; w2_pid=""
trap 'rm -rf "$ckpt" "$scrape_log" "$bindir" "$svcdata" "$svclog" "$victimlog"
      for p in $scrape_pid $farmd_pid $victim_pid $w1_pid $w2_pid; do kill "$p" 2>/dev/null || true; done' EXIT

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

# The victim leases the largest shard and parks; kill it once the lease is
# provably held (its log announces the grant).
"$bindir/qgj" -worker "$base" -worker-name victim -throttle 60s 2>"$victimlog" &
victim_pid=$!
for _ in $(seq 1 100); do
    grep -q 'lease l' "$victimlog" && break
    sleep 0.1
done
grep -q 'lease l' "$victimlog"
"$bindir/qgj" -worker "$base" -worker-name w1 -poll 100ms 2>/dev/null &
w1_pid=$!
"$bindir/qgj" -worker "$base" -worker-name w2 -poll 100ms 2>/dev/null &
w2_pid=$!
kill -9 "$victim_pid" && wait "$victim_pid" 2>/dev/null || true
victim_pid=""

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
# with another mid-lease SIGKILL. The OS-fault schedule is keyed on dispatch
# sequence numbers, so the reclaimed shard's re-execution and the in-process
# run must both produce byte-identical exports, graceful-degradation
# verdicts included.
fault_spec="-app com.heartwatch.wear,com.strava.wear -campaigns F -quick 8"
fid="$("$bindir/farmd" submit -addr "$base" $fault_spec)"
: > "$victimlog"
"$bindir/qgj" -worker "$base" -worker-name fault-victim -throttle 60s 2>"$victimlog" &
victim_pid=$!
for _ in $(seq 1 100); do
    grep -q 'lease l' "$victimlog" && break
    sleep 0.1
done
grep -q 'lease l' "$victimlog"
"$bindir/qgj" -worker "$base" -worker-name fault-w1 -poll 100ms 2>/dev/null &
w1_pid=$!
kill -9 "$victim_pid" && wait "$victim_pid" 2>/dev/null || true
victim_pid=""
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
