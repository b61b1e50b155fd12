// Command benchgate parses `go test -bench` output, compares the hot-path
// benchmarks against the frozen pre-optimization baseline and the
// regression ceilings, writes the machine-readable BENCH_10.json artifact,
// and exits non-zero if any gated number is over its ceiling or the
// persistent executor's per-unit speedup drops under its floor.
//
// When -count>1 was used, the minimum per benchmark is kept: minima are the
// robust location estimator under scheduler and frequency noise, which on a
// shared machine easily dwarfs the single-digit-percent effects the gate
// protects (notably the telemetry delta).
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strconv"
	"strings"
)

// result is one benchmark's parsed (min-aggregated) numbers.
type result struct {
	NsPerOp     float64 `json:"ns_per_op"`
	BytesPerOp  float64 `json:"bytes_per_op"`
	AllocsPerOp float64 `json:"allocs_per_op"`

	// Frozen pre-optimization numbers (the seed of this gate); zero-valued
	// fields mean the dimension was not recorded.
	BaselineNs     float64 `json:"baseline_ns_per_op,omitempty"`
	BaselineAllocs float64 `json:"baseline_allocs_per_op,omitempty"`

	// Regression ceilings; exceeding any fails the gate.
	CeilingNs     float64 `json:"ceiling_ns_per_op,omitempty"`
	CeilingAllocs float64 `json:"ceiling_allocs_per_op,omitempty"`
}

// gates maps benchmark name -> baseline and ceilings. Baselines are the
// numbers measured immediately before the zero-allocation work landed;
// ceilings are the optimized numbers plus ~40-80% headroom so the gate
// trips on reintroduced per-intent work, not on machine variance.
var gates = map[string]*result{
	"BenchmarkDispatchNoEffect":          {BaselineNs: 1845, BaselineAllocs: 18, CeilingNs: 700, CeilingAllocs: 0.1},
	"BenchmarkDispatchNoTelemetry":       {BaselineNs: 1843, CeilingNs: 700, CeilingAllocs: 0.1},
	"BenchmarkDispatchRecorder":          {BaselineNs: 1845, CeilingNs: 735, CeilingAllocs: 0.1},
	"BenchmarkDispatchFaultHooks":        {BaselineNs: 281, CeilingNs: 735, CeilingAllocs: 0.1},
	"BenchmarkCampaignInstrumented":      {BaselineNs: 6777638, BaselineAllocs: 54226, CeilingNs: 2.3e6, CeilingAllocs: 1000},
	"BenchmarkCampaignNoTelemetry":       {BaselineNs: 6970505, BaselineAllocs: 52861, CeilingNs: 2.1e6, CeilingAllocs: 800},
	"BenchmarkTableI_CampaignGeneration": {BaselineNs: 814105, BaselineAllocs: 8798, CeilingNs: 7.2e5, CeilingAllocs: 5000},
	"BenchmarkIntentString":              {BaselineNs: 534, BaselineAllocs: 9, CeilingNs: 400, CeilingAllocs: 2},
	"BenchmarkLogcatAppend":              {BaselineNs: 23.85, CeilingNs: 90},
	"BenchmarkLogcatFormatParse":         {BaselineNs: 2419, CeilingNs: 3400},

	// Snapshot gates (PR 5). Baselines are the fresh-boot-per-shard numbers
	// measured immediately before the snapshot/clone path landed; ceilings
	// carry ~70% headroom over the optimized numbers.
	"BenchmarkShardBootFresh": {BaselineNs: 2.38e6, CeilingNs: 4.5e6, CeilingAllocs: 100},
	"BenchmarkShardBootClone": {BaselineNs: 2.38e6, BaselineAllocs: 46, CeilingNs: 6.0e4, CeilingAllocs: 100},

	// Persistent-mode gates (PR 10). Farm8Persist's baseline is the
	// clone-per-shard Farm8 it replaces as the default; the end-to-end gain
	// at this campaign scale is bounded by campaign dispatch, so its value
	// is the ~40% allocation cut (the ceiling holds it). UnitReset's
	// baseline is the UnitClone cost the persistent executor replaces per
	// triage/minimizer re-execution; measured ~5.3 µs / 30 allocs against
	// the clone path's ~18.5 µs / 89 allocs.
	"BenchmarkFarm8Persist": {BaselineNs: 4.68e7, BaselineAllocs: 93763, CeilingNs: 8.0e7, CeilingAllocs: 120000},
	"BenchmarkUnitClone":    {CeilingNs: 4.0e4, CeilingAllocs: 150},
	"BenchmarkUnitReset":    {BaselineNs: 18565, BaselineAllocs: 89, CeilingNs: 1.2e4, CeilingAllocs: 60},

	// Farm-service queue gates (PR 7). Baselines are the numbers measured
	// when the coordinator landed: the lease cycle (grant + heartbeat +
	// release) is pure in-memory queue bookkeeping and must stay in the
	// microsecond range; the result round trip includes record validation
	// and the fsynced journal append, so its ceiling carries wide headroom
	// for disk variance while still catching an accidental re-plan or
	// decode/re-encode on the upload path.
	"BenchmarkQueueLeaseCycle":      {BaselineNs: 1220, BaselineAllocs: 6, CeilingNs: 6.0e3, CeilingAllocs: 20},
	"BenchmarkQueueResultRoundTrip": {BaselineNs: 267550, BaselineAllocs: 155, CeilingNs: 1.5e6, CeilingAllocs: 500},
}

// dispatchDeltaCeiling bounds DispatchNoEffect/DispatchNoTelemetry - 1.
// The observability budget is <5% measured as min-of-5 on a quiet machine
// (docs/performance.md); the automated gate allows 8% so residual noise in
// a min-of-3 CI run cannot flake it while an unbatched counter (~8%+ per
// atomic at current dispatch cost) still trips it.
const dispatchDeltaCeiling = 0.08

// recorderDeltaCeiling bounds DispatchRecorder/DispatchNoEffect - 1: the
// flight recorder's cost on top of the fully-instrumented dispatch path.
// Budget is <5% (one pooled ring-slot write per dispatch, clock stamp
// sampled 1-in-16); measured ~3% min-of-5. The gate uses the same 5%
// because the two benchmarks run back to back and share noise, unlike the
// telemetry pair whose ceilings predate min-of-N.
const recorderDeltaCeiling = 0.05

// faultDeltaCeiling bounds DispatchFaultHooks/DispatchNoEffect - 1: the cost
// of an attached-but-dormant fault engine on every dispatch outside a fault
// window (two hook indirections plus one cached-coordinate compare). Budget
// is <5% (docs/faults.md); measured within noise of zero min-of-5. The pair
// runs interleaved like the recorder pair, so the same 5% applies.
const faultDeltaCeiling = 0.05

// persistUnitSpeedupFloor is the persistent-mode tentpole's acceptance bar,
// measured where device provisioning dominates: one campaign unit (install
// + handler registration + crash repro — the triage oracle / minimizer
// re-execution shape) on a hot device reset in place versus on a fresh
// clone. Measured min-of-3 on the machine that set the ceilings: ~3.4x.
const persistUnitSpeedupFloor = 3.0

type output struct {
	GeneratedBy string             `json:"generated_by"`
	GoVersion   string             `json:"go_version"`
	GOOS        string             `json:"goos"`
	GOARCH      string             `json:"goarch"`
	Benchmarks  map[string]*result `json:"benchmarks"`
	// DispatchTelemetryDelta is instrumented/uninstrumented - 1 for the
	// single-dispatch hot path.
	DispatchTelemetryDelta        float64 `json:"dispatch_telemetry_delta"`
	DispatchTelemetryDeltaCeiling float64 `json:"dispatch_telemetry_delta_ceiling"`
	// DispatchRecorderDelta is recorder-on/recorder-off - 1 for the same
	// path (the flight recorder's marginal cost).
	DispatchRecorderDelta        float64 `json:"dispatch_recorder_delta"`
	DispatchRecorderDeltaCeiling float64 `json:"dispatch_recorder_delta_ceiling"`
	// DispatchFaultDelta is fault-hooks-attached/detached - 1 for the same
	// path (the dormant fault engine's marginal cost).
	DispatchFaultDelta        float64 `json:"dispatch_fault_delta"`
	DispatchFaultDeltaCeiling float64 `json:"dispatch_fault_delta_ceiling"`
	// FarmPersistSpeedup is UnitClone ns/op over UnitReset ns/op: the
	// per-campaign-unit cost ratio of clone-per-execution versus the
	// persistent executor's reset-in-place, measured on the oracle-shaped
	// unit where provisioning dominates.
	FarmPersistSpeedup      float64  `json:"farm_persist_speedup"`
	FarmPersistSpeedupFloor float64  `json:"farm_persist_speedup_floor"`
	Pass                    bool     `json:"pass"`
	Failures                []string `json:"failures,omitempty"`
}

func main() {
	input := flag.String("input", "", "raw `go test -bench` output file")
	outPath := flag.String("output", "BENCH_10.json", "JSON artifact path")
	flag.Parse()
	if *input == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -input is required")
		os.Exit(2)
	}

	parsed, err := parseBench(*input)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	out := output{
		GeneratedBy:                   "scripts/bench.sh",
		GoVersion:                     runtime.Version(),
		GOOS:                          runtime.GOOS,
		GOARCH:                        runtime.GOARCH,
		Benchmarks:                    map[string]*result{},
		DispatchTelemetryDeltaCeiling: dispatchDeltaCeiling,
		DispatchRecorderDeltaCeiling:  recorderDeltaCeiling,
		DispatchFaultDeltaCeiling:     faultDeltaCeiling,
		FarmPersistSpeedupFloor:       persistUnitSpeedupFloor,
		Pass:                          true,
	}

	for name, gate := range gates {
		got, ok := parsed[name]
		if !ok {
			out.fail("%s: missing from bench output", name)
			continue
		}
		r := *gate
		r.NsPerOp, r.BytesPerOp, r.AllocsPerOp = got.NsPerOp, got.BytesPerOp, got.AllocsPerOp
		out.Benchmarks[name] = &r
		if r.CeilingNs > 0 && r.NsPerOp > r.CeilingNs {
			out.fail("%s: %.1f ns/op exceeds ceiling %.1f", name, r.NsPerOp, r.CeilingNs)
		}
		if gate.CeilingAllocs > 0 && r.AllocsPerOp > gate.CeilingAllocs {
			out.fail("%s: %.2f allocs/op exceeds ceiling %.2f", name, r.AllocsPerOp, gate.CeilingAllocs)
		}
		// A zero alloc ceiling is written as 0.1: benchmark allocs/op are
		// whole numbers, and a ceiling of 0 would disable the check.
	}

	inst, okA := parsed["BenchmarkDispatchNoEffect"]
	bare, okB := parsed["BenchmarkDispatchNoTelemetry"]
	if okA && okB && bare.NsPerOp > 0 {
		out.DispatchTelemetryDelta = round4(inst.NsPerOp/bare.NsPerOp - 1)
		if out.DispatchTelemetryDelta > dispatchDeltaCeiling {
			out.fail("dispatch telemetry delta %.1f%% exceeds %.0f%%",
				out.DispatchTelemetryDelta*100, dispatchDeltaCeiling*100)
		}
	}

	recOn, okR := parsed["BenchmarkDispatchRecorder"]
	if okA && okR && inst.NsPerOp > 0 {
		out.DispatchRecorderDelta = round4(recOn.NsPerOp/inst.NsPerOp - 1)
		if out.DispatchRecorderDelta > recorderDeltaCeiling {
			out.fail("dispatch recorder delta %.1f%% exceeds %.0f%%",
				out.DispatchRecorderDelta*100, recorderDeltaCeiling*100)
		}
	}

	hooks, okH := parsed["BenchmarkDispatchFaultHooks"]
	if okA && okH && inst.NsPerOp > 0 {
		out.DispatchFaultDelta = round4(hooks.NsPerOp/inst.NsPerOp - 1)
		if out.DispatchFaultDelta > faultDeltaCeiling {
			out.fail("dispatch fault-hook delta %.1f%% exceeds %.0f%%",
				out.DispatchFaultDelta*100, faultDeltaCeiling*100)
		}
	}

	unitClone, okC := parsed["BenchmarkUnitClone"]
	unitReset, okU := parsed["BenchmarkUnitReset"]
	if okC && okU && unitReset.NsPerOp > 0 {
		out.FarmPersistSpeedup = round4(unitClone.NsPerOp / unitReset.NsPerOp)
		if out.FarmPersistSpeedup < persistUnitSpeedupFloor {
			out.fail("farm persist per-unit speedup %.2fx below the %.1fx floor",
				out.FarmPersistSpeedup, persistUnitSpeedupFloor)
		}
	}

	data, err := json.MarshalIndent(out, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}
	data = append(data, '\n')
	if err := os.WriteFile(*outPath, data, 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "benchgate: %v\n", err)
		os.Exit(2)
	}

	if !out.Pass {
		for _, f := range out.Failures {
			fmt.Fprintln(os.Stderr, "benchgate: FAIL:", f)
		}
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmarks within ceilings; telemetry delta %.1f%%; recorder delta %.1f%%; fault-hook delta %.1f%%; persist per-unit speedup %.2fx\n",
		len(out.Benchmarks), out.DispatchTelemetryDelta*100, out.DispatchRecorderDelta*100, out.DispatchFaultDelta*100, out.FarmPersistSpeedup)
}

func (o *output) fail(format string, args ...any) {
	o.Pass = false
	o.Failures = append(o.Failures, fmt.Sprintf(format, args...))
}

// parseBench extracts per-benchmark minima from raw `go test -bench` text.
func parseBench(path string) (map[string]*result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()

	out := map[string]*result{}
	// go test prints the benchmark name first and the result columns only
	// after the run finishes, so a benchmark that logs to stdout mid-run
	// (the ring-full warning) tears its line apart: remember the last seen
	// name and accept a bare "iterations ns ns/op ..." continuation for it.
	pending := ""
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) == 0 {
			continue
		}
		if strings.HasPrefix(fields[0], "Benchmark") && len(fields[0]) > len("Benchmark") {
			name := fields[0]
			if i := strings.LastIndexByte(name, '-'); i > 0 {
				if _, err := strconv.Atoi(name[i+1:]); err == nil {
					name = name[:i]
				}
			}
			if len(fields) >= 4 && fields[3] == "ns/op" {
				record(out, name, fields[1:])
				pending = ""
			} else {
				pending = name
			}
			continue
		}
		if pending != "" && len(fields) >= 3 && fields[2] == "ns/op" {
			record(out, pending, fields)
			pending = ""
		}
	}
	for _, r := range out {
		if math.IsInf(r.BytesPerOp, 1) {
			r.BytesPerOp = 0
		}
		if math.IsInf(r.AllocsPerOp, 1) {
			r.AllocsPerOp = 0
		}
	}
	return out, sc.Err()
}

// record folds one "iterations ns ns/op [bytes B/op allocs allocs/op]"
// field list into the per-benchmark minima.
func record(out map[string]*result, name string, fields []string) {
	ns, err := strconv.ParseFloat(fields[1], 64)
	if err != nil {
		return
	}
	r := out[name]
	if r == nil {
		r = &result{NsPerOp: math.Inf(1), BytesPerOp: math.Inf(1), AllocsPerOp: math.Inf(1)}
		out[name] = r
	}
	r.NsPerOp = math.Min(r.NsPerOp, ns)
	for i := 3; i+1 < len(fields); i += 2 {
		v, err := strconv.ParseFloat(fields[i], 64)
		if err != nil {
			continue
		}
		switch fields[i+1] {
		case "B/op":
			r.BytesPerOp = math.Min(r.BytesPerOp, v)
		case "allocs/op":
			r.AllocsPerOp = math.Min(r.AllocsPerOp, v)
		}
	}
}

func round4(f float64) float64 { return math.Round(f*1e4) / 1e4 }
