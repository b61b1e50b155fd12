// Command qgjbench is the repository's end-to-end benchmark. It runs four
// workloads through the system's public entry points, one repetition per
// fresh child process, checks that the outputs are correct, and reports
// whole-run metrics (medians over the repetitions) and, with --trace 1, a
// per-layer breakdown from one extra traced run. BENCHMARK.json at the
// repository root names the workloads and metrics; bench/README.md
// explains them.
//
// Usage (from the repository root, via bench/run.sh which builds it):
//
//	qgjbench --workload wear-study --seed 1 --seconds 20 --trace 0
//	qgjbench --seed 1 -o set1.json [--trace 1] [--trace-out set1.trace.json]
//	qgjbench agree set1.json set2.json
//
// With --workload the last line of standard output is one JSON object:
// {"correct", "attempted", "failed", "metrics"}. Without it every workload
// runs in turn and -o writes the set (medians, quartiles, per-layer
// metrics) for agree to compare.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"syscall"
	"time"
)

// Environment of a child process: childEnv marks it, t0Env carries the
// parent's clock reading just before the child started (Unix nanoseconds).
const (
	childEnv = "QGJBENCH_CHILD"
	t0Env    = "QGJBENCH_T0"
)

// minReps is the fewest repetitions a run reports a median over;
// minSetups the fewest setup samples, topped up by setup-only children.
const (
	minReps   = 3
	minSetups = 15
)

// runBudget bounds one workload's run, children included; a run must end
// within three minutes.
const runBudget = 170 * time.Second

func main() {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	if len(os.Args) > 1 && os.Args[1] == "agree" {
		os.Exit(agreeMain(os.Args[2:], os.Stdout))
	}
	os.Exit(benchMain(os.Args[1:]))
}

// childMain runs one repetition: the job arrives on standard input, the
// measurements leave as one JSON line on standard output.
func childMain() int {
	var j job
	if err := json.NewDecoder(os.Stdin).Decode(&j); err != nil {
		fmt.Fprintf(os.Stderr, "qgjbench child: read job: %v\n", err)
		return 2
	}
	ns, err := strconv.ParseInt(os.Getenv(t0Env), 10, 64)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgjbench child: %s: %v\n", t0Env, err)
		return 2
	}
	r, err := runChild(j, time.Unix(0, ns))
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgjbench child: %s: %v\n", j.Workload, err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(r); err != nil {
		fmt.Fprintf(os.Stderr, "qgjbench child: write result: %v\n", err)
		return 1
	}
	return 0
}

func benchMain(args []string) int {
	fs := flag.NewFlagSet("qgjbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "run one workload and print the result line (default: every workload, as one set)")
	seed := fs.Uint64("seed", 1, "workload seed: the same seed gives the same inputs")
	seconds := fs.Float64("seconds", 20, "measured seconds per workload (at least 3 repetitions)")
	trace := fs.Int("trace", 0, "1 adds one traced run per workload and reports per-layer metrics")
	out := fs.String("o", "", "write the set (medians, quartiles, per-layer metrics) as JSON to `file`")
	traceOut := fs.String("trace-out", "", "write the traced runs' spans as Chrome trace-event JSON to `file`")
	defPath := fs.String("benchmark", "BENCHMARK.json", "benchmark definition: workloads, metrics, units, bounds")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *trace != 0 && *trace != 1 {
		fmt.Fprintln(os.Stderr, "qgjbench: --trace takes 0 or 1")
		return 2
	}
	def, err := loadDefinition(*defPath)
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgjbench: %v\n", err)
		return 2
	}
	names := workloadNames
	if *workload != "" {
		names = []string{*workload}
	}
	workDir, err := filepath.Abs(filepath.Join(".bench_build", fmt.Sprintf("work-%d", os.Getpid())))
	if err == nil {
		err = os.MkdirAll(workDir, 0o755)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "qgjbench: work dir: %v\n", err)
		return 2
	}
	defer os.RemoveAll(workDir)

	var results []*workloadResult
	for _, name := range names {
		j, err := makeJob(name, *seed, false)
		if err != nil {
			fmt.Fprintf(os.Stderr, "qgjbench: %v\n", err)
			return 2
		}
		j.WorkDir = workDir
		wr := runWorkload(j, time.Duration(*seconds*float64(time.Second)), *trace == 1)
		wr.checkMetrics(def)
		wr.print(os.Stderr, def)
		results = append(results, wr)
	}

	status := 0
	for _, wr := range results {
		if !wr.correct() {
			status = 1
		}
	}
	if *traceOut != "" {
		if err := writeTraceFile(*traceOut, results); err != nil {
			fmt.Fprintf(os.Stderr, "qgjbench: %v\n", err)
			status = 1
		}
	}
	if *out != "" {
		if err := writeSet(*out, def, *seed, *seconds, results); err != nil {
			fmt.Fprintf(os.Stderr, "qgjbench: %v\n", err)
			status = 1
		}
	}
	if *workload != "" {
		line, err := json.Marshal(results[0].line(def, *trace == 1))
		if err != nil {
			fmt.Fprintf(os.Stderr, "qgjbench: %v\n", err)
			return 1
		}
		fmt.Println(string(line))
	}
	return status
}

// workloadResult is one workload's repetitions, traced run and checks.
type workloadResult struct {
	Name string
	Reps []rep
	// Setups are the setup times of setup-only children.
	Setups []float64
	Traced *rep
	// RefHash is the in-process export hash of service-wear's spec, which
	// the service's export must equal.
	RefHash   string
	Problems  []string
	Attempted int
	Failed    int
}

// runWorkload measures j for at least the given time and minReps
// repetitions, then, when traced, runs one traced child.
func runWorkload(j job, seconds time.Duration, traced bool) *workloadResult {
	ctx, cancel := context.WithTimeout(context.Background(), runBudget)
	defer cancel()
	wr := &workloadResult{Name: j.Workload}
	if j.Workload == serviceWear {
		ref := j
		ref.Workload = wearStudy
		r, err := spawn(ctx, ref)
		if err != nil {
			wr.fail("in-process reference run: %v", err)
		} else {
			wr.RefHash = r.Hash
		}
	}
	start := time.Now()
	for len(wr.Reps) < minReps || time.Since(start) < seconds {
		r, err := spawn(ctx, j)
		if err != nil {
			wr.fail("repetition %d: %v", len(wr.Reps), err)
			break
		}
		wr.Reps = append(wr.Reps, *r)
		wr.Attempted += r.Ops
		wr.Failed += r.FailedOps
	}
	setup := j
	setup.SetupOnly = true
	for len(wr.Problems) == 0 && len(wr.Reps)+len(wr.Setups) < minSetups {
		r, err := spawn(ctx, setup)
		if err != nil {
			wr.fail("setup-only run: %v", err)
			break
		}
		wr.Setups = append(wr.Setups, r.SetupS)
	}
	if traced && len(wr.Reps) > 0 {
		j.Trace = true
		r, err := spawn(ctx, j)
		if err != nil {
			wr.fail("traced run: %v", err)
		} else {
			wr.Traced = r
			wr.Attempted += r.Ops
			wr.Failed += r.FailedOps
			walls := make([]float64, len(wr.Reps))
			for i, rp := range wr.Reps {
				walls[i] = rp.WallS
			}
			r.Layers["trace.overhead_frac"] = r.WallS/median(walls) - 1
		}
	}
	wr.check()
	return wr
}

// fail records a failed check or operation.
func (wr *workloadResult) fail(format string, args ...any) {
	wr.Problems = append(wr.Problems, fmt.Sprintf(format, args...))
	wr.Attempted++
	wr.Failed++
}

func (wr *workloadResult) correct() bool { return len(wr.Problems) == 0 }

// check applies the correctness checks: inputs were injected, as many as
// the inputs call for; every repetition exported the same bytes; the
// service exported what the in-process farm did; the traced run and its
// replay exported what the timed runs did.
func (wr *workloadResult) check() {
	if len(wr.Reps) == 0 {
		wr.Problems = append(wr.Problems, "no repetition completed")
		return
	}
	want := wr.Reps[0].Hash
	for i, r := range wr.Reps {
		if r.Events <= 0 || r.Events != r.Expected {
			wr.Problems = append(wr.Problems, fmt.Sprintf("repetition %d injected %d inputs, want %d", i, r.Events, r.Expected))
		}
		if r.Hash != want {
			wr.Problems = append(wr.Problems, fmt.Sprintf("repetition %d output hash %.12s differs from repetition 0's %.12s", i, r.Hash, want))
		}
	}
	if wr.RefHash != "" && wr.RefHash != want {
		wr.Problems = append(wr.Problems, fmt.Sprintf("service export hash %.12s differs from the in-process export %.12s", want, wr.RefHash))
	}
	if t := wr.Traced; t != nil {
		if t.Hash != want {
			wr.Problems = append(wr.Problems, fmt.Sprintf("traced run's output hash %.12s differs from the timed runs' %.12s", t.Hash, want))
		}
		if t.ReplayHash != want {
			wr.Problems = append(wr.Problems, fmt.Sprintf("replay's export hash %.12s differs from the timed runs' %.12s", t.ReplayHash, want))
		}
	}
}

// spawn runs one repetition of j in a fresh child process of this binary
// and returns its measurements, with the child's peak RSS.
func spawn(ctx context.Context, j job) (*rep, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	in, err := json.Marshal(j)
	if err != nil {
		return nil, err
	}
	cmd := exec.CommandContext(ctx, exe)
	cmd.Stdin = bytes.NewReader(in)
	var stdout bytes.Buffer
	stderr := &tailBuffer{max: 4096}
	cmd.Stdout, cmd.Stderr = &stdout, stderr
	cmd.Env = append(os.Environ(), childEnv+"=1", t0Env+"="+strconv.FormatInt(time.Now().UnixNano(), 10))
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("%s child: %v: %s", j.Workload, err, bytes.TrimSpace(stderr.buf))
	}
	var r rep
	if err := json.Unmarshal(stdout.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("%s child: decode result: %v", j.Workload, err)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		r.PeakRSSMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	return &r, nil
}

// tailBuffer keeps the last max bytes written to it.
type tailBuffer struct {
	max int
	buf []byte
}

func (t *tailBuffer) Write(p []byte) (int, error) {
	t.buf = append(t.buf, p...)
	if len(t.buf) > t.max {
		t.buf = t.buf[len(t.buf)-t.max:]
	}
	return len(p), nil
}

// metricDef is one metric of BENCHMARK.json.
type metricDef struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound,omitempty"`
}

// definition is the part of BENCHMARK.json the benchmark reads.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []metricDef `json:"per_layer"`
}

func loadDefinition(path string) (*definition, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var def definition
	if err := json.Unmarshal(data, &def); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &def, nil
}

// endToEnd returns each end-to-end metric's samples, one per repetition;
// setup_s also holds the setup-only children's.
func (wr *workloadResult) endToEnd() map[string][]float64 {
	m := map[string][]float64{"setup_s": append([]float64(nil), wr.Setups...)}
	for _, r := range wr.Reps {
		m["setup_s"] = append(m["setup_s"], r.SetupS)
		m["wall_s"] = append(m["wall_s"], r.WallS)
		m["events_per_s"] = append(m["events_per_s"], float64(r.Events)/r.WallS)
		m["cpu_s"] = append(m["cpu_s"], r.CPUS)
		m["peak_rss_mb"] = append(m["peak_rss_mb"], r.PeakRSSMB)
		m["alloc_mb"] = append(m["alloc_mb"], r.AllocMB)
	}
	return m
}

// checkMetrics checks that the run measured every metric the definition
// names, with a finite value.
func (wr *workloadResult) checkMetrics(def *definition) {
	if len(wr.Reps) == 0 {
		return
	}
	samples := wr.endToEnd()
	for _, m := range def.EndToEnd {
		xs, ok := samples[m.Name]
		if !ok || slices.ContainsFunc(xs, func(x float64) bool { return math.IsNaN(x) || math.IsInf(x, 0) }) {
			wr.Problems = append(wr.Problems, fmt.Sprintf("end-to-end metric %s not measured", m.Name))
		}
	}
	if wr.Traced == nil {
		return
	}
	for _, m := range def.PerLayer {
		x, ok := wr.Traced.Layers[m.Name]
		if !ok || math.IsNaN(x) || math.IsInf(x, 0) {
			wr.Problems = append(wr.Problems, fmt.Sprintf("per-layer metric %s not measured", m.Name))
		}
	}
}

// metricValue is one metric of the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the one-line JSON result of a single-workload run.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// line renders the result: end-to-end medians, or with traced the traced
// run's per-layer metrics. Unmeasured or non-finite values read 0 (and the
// run is already marked incorrect).
func (wr *workloadResult) line(def *definition, traced bool) resultLine {
	l := resultLine{Correct: wr.correct(), Attempted: max(wr.Attempted, 1), Failed: wr.Failed,
		Metrics: make(map[string]metricValue)}
	finite := func(x float64) float64 {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return 0
		}
		return x
	}
	if traced {
		for _, m := range def.PerLayer {
			var v float64
			if wr.Traced != nil {
				v = wr.Traced.Layers[m.Name]
			}
			l.Metrics[m.Name] = metricValue{Value: finite(v), Unit: m.Unit}
		}
		return l
	}
	samples := wr.endToEnd()
	for _, m := range def.EndToEnd {
		l.Metrics[m.Name] = metricValue{Value: finite(median(samples[m.Name])), Unit: m.Unit}
	}
	return l
}

func writeTraceFile(path string, results []*workloadResult) error {
	var procs []tracedProcess
	for _, wr := range results {
		if wr.Traced != nil {
			procs = append(procs, tracedProcess{Name: wr.Name, Spans: wr.Traced.Spans})
		}
	}
	if len(procs) == 0 {
		return errors.New("--trace-out: no traced run (add --trace 1)")
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := writeChromeTrace(f, procs); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
