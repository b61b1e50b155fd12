package main

import (
	"bytes"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// TestMain lets the test binary serve as the benchmark's child process, so
// the tests exercise the real parent/child path.
func TestMain(m *testing.M) {
	if os.Getenv(childEnv) != "" {
		os.Exit(childMain())
	}
	os.Exit(m.Run())
}

func loadTestDefinition(t *testing.T) *definition {
	t.Helper()
	def, err := loadDefinition("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	return def
}

func toyJob(t *testing.T, workload string) job {
	t.Helper()
	j, err := makeJob(workload, 1, true)
	if err != nil {
		t.Fatal(err)
	}
	j.WorkDir = t.TempDir()
	return j
}

// TestSmoke runs every workload at toy scale through the timed and traced
// paths and asserts every correctness check.
func TestSmoke(t *testing.T) {
	def := loadTestDefinition(t)
	for _, name := range workloadNames {
		wr := runWorkload(toyJob(t, name), 0, true)
		wr.checkMetrics(def)
		if !wr.correct() {
			t.Errorf("%s: checks failed: %v", name, wr.Problems)
			continue
		}
		if wr.Failed != 0 || wr.Attempted == 0 {
			t.Errorf("%s: attempted %d failed %d, want no failures", name, wr.Attempted, wr.Failed)
		}
		if len(wr.Reps) < minReps {
			t.Errorf("%s: %d repetitions, want at least %d", name, len(wr.Reps), minReps)
		}
		if c := wr.Traced.Layers["trace.coverage"]; c < 0.9 {
			t.Errorf("%s: trace.coverage = %.3f, want >= 0.9", name, c)
		}
		for m, v := range wr.line(def, false).Metrics {
			if !(v.Value > 0) {
				t.Errorf("%s: end-to-end %s = %v, want > 0", name, m, v.Value)
			}
		}
		if got := len(wr.line(def, true).Metrics); got != len(def.PerLayer) {
			t.Errorf("%s: traced line has %d metrics, want %d", name, got, len(def.PerLayer))
		}
	}
}

// TestDefinitionMatchesCode keeps BENCHMARK.json and the code in step.
func TestDefinitionMatchesCode(t *testing.T) {
	def := loadTestDefinition(t)
	var names []string
	for _, w := range def.Workloads {
		names = append(names, w.Name)
	}
	if !slices.Equal(names, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, code runs %v", names, workloadNames)
	}
	wr := &workloadResult{Reps: []rep{{WallS: 1}}}
	measured := wr.endToEnd()
	for _, m := range def.EndToEnd {
		if _, ok := measured[m.Name]; !ok {
			t.Errorf("end-to-end metric %s is not measured", m.Name)
		}
	}
	if len(measured) != len(def.EndToEnd) {
		t.Errorf("code measures %d end-to-end metrics, BENCHMARK.json lists %d", len(measured), len(def.EndToEnd))
	}
	names = nil
	for _, m := range def.PerLayer {
		names = append(names, m.Name)
	}
	if !slices.Equal(names, layerNames) {
		t.Errorf("BENCHMARK.json per_layer %v\ncode reports %v", names, layerNames)
	}
}

func TestChecksFlagMismatchedHashes(t *testing.T) {
	good := rep{Hash: "aaaa", Events: 10, Expected: 10}
	for _, c := range []struct {
		name string
		wr   workloadResult
		want string
	}{
		{"repetitions differ", workloadResult{Reps: []rep{good, {Hash: "bbbb", Events: 10, Expected: 10}}}, "repetition 1 output hash"},
		{"service differs from in-process", workloadResult{RefHash: "cccc", Reps: []rep{good}}, "in-process export"},
		{"replay differs", workloadResult{Reps: []rep{good}, Traced: &rep{Hash: "aaaa", ReplayHash: "dddd"}}, "replay's export hash"},
		{"short volume", workloadResult{Reps: []rep{{Hash: "aaaa", Events: 9, Expected: 10}}}, "injected 9 inputs, want 10"},
		{"nothing sent", workloadResult{Reps: []rep{{Hash: "aaaa"}}}, "injected 0 inputs"},
	} {
		wr := c.wr
		wr.check()
		if wr.correct() || !strings.Contains(strings.Join(wr.Problems, "\n"), c.want) {
			t.Errorf("%s: problems %q, want one containing %q", c.name, wr.Problems, c.want)
		}
	}
}

// faulty answers the first n requests to route with status, then passes
// requests through.
func faulty(routeName string, status, n int) func(http.Handler) http.Handler {
	var hits atomic.Int32
	return func(next http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			if name, _ := route(r); name == routeName && int(hits.Add(1)) <= n {
				w.Header().Set("Retry-After", "0")
				http.Error(w, `{"error":"injected"}`, status)
				return
			}
			next.ServeHTTP(w, r)
		})
	}
}

func TestServiceRetriedFaultsRaiseFailFrac(t *testing.T) {
	j := toyJob(t, serviceWear)
	clean, _, err := serviceRep(j, time.Now(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if clean.FailedOps != 0 {
		t.Fatalf("clean run: %d failed requests", clean.FailedOps)
	}
	for _, status := range []int{http.StatusInternalServerError, http.StatusTooManyRequests} {
		r, _, err := serviceRep(j, time.Now(), faulty("result", status, 2))
		if err != nil {
			t.Fatalf("%d: the client retries it, so the run must complete: %v", status, err)
		}
		if r.FailedOps != 2 || r.Ops <= clean.Ops {
			t.Errorf("%d: failed %d of %d requests, want 2 failed of more than %d", status, r.FailedOps, r.Ops, clean.Ops)
		}
		if r.Hash != clean.Hash {
			t.Errorf("%d: export changed under retried faults", status)
		}
	}
}

func TestShardErrorsFailTheRun(t *testing.T) {
	// A refused upload is a shard the service never accepts: the worker
	// gives up and the repetition errors.
	j := toyJob(t, serviceWear)
	if _, _, err := serviceRep(j, time.Now(), faulty("result", http.StatusConflict, 1)); err == nil {
		t.Error("refused upload: run succeeded")
	}

	// A child that errors fails the workload and counts as a failed op.
	j = toyJob(t, wearStudy)
	j.Specs[0].Packages = []string{"com.example.not.in.fleet"}
	wr := runWorkload(j, 0, false)
	if wr.correct() || wr.Failed == 0 {
		t.Errorf("failing child: correct=%v failed=%d, want a failed run", wr.correct(), wr.Failed)
	}
	if l := wr.line(loadTestDefinition(t), false); l.Correct || l.Failed == 0 {
		t.Errorf("result line %+v does not report the failure", l)
	}
}

func TestAgree(t *testing.T) {
	def := loadTestDefinition(t)
	set := func(wall float64) *setFile {
		sw := setWorkload{Name: wearStudy, Metrics: map[string]summary{}}
		for _, m := range def.EndToEnd {
			sw.Metrics[m.Name] = summary{Median: 1, Q1: 0.9, Q3: 1.1, N: 7}
		}
		sw.Metrics["wall_s"] = summary{Median: wall, N: 7}
		return &setFile{Workloads: []setWorkload{sw}}
	}
	var out bytes.Buffer
	if got := agree(&out, def, set(1), set(1.05)); got != 0 {
		t.Errorf("5%% apart: agree = %d, want 0\n%s", got, out.String())
	}
	out.Reset()
	if got := agree(&out, def, set(1), set(1.3)); got != 1 || !strings.Contains(out.String(), "DISAGREE") {
		t.Errorf("30%% apart: agree = %d, want 1\n%s", got, out.String())
	}

	// Round trip through set files and the command line.
	dir := t.TempDir()
	wr := &workloadResult{Name: wearStudy, Reps: []rep{{WallS: 1, Events: 5, CPUS: 1, SetupS: 1, PeakRSSMB: 1, AllocMB: 1}}}
	a, b := filepath.Join(dir, "a.json"), filepath.Join(dir, "b.json")
	for _, p := range []string{a, b} {
		if err := writeSet(p, def, 1, 20, []*workloadResult{wr}); err != nil {
			t.Fatal(err)
		}
	}
	out.Reset()
	if got := agreeMain([]string{"--benchmark", "../BENCHMARK.json", a, b}, &out); got != 0 {
		t.Errorf("identical sets: agree = %d\n%s", got, out.String())
	}
	var s setFile
	data, _ := os.ReadFile(a)
	if err := json.Unmarshal(data, &s); err != nil || s.Workloads[0].Metrics["wall_s"].Unit != "s" {
		t.Errorf("set file %s: %v", data, err)
	}
}
