package telemetry

import (
	"encoding/json"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"
)

func TestWritePrometheusFormat(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("qgj_intents_injected_total", L("campaign", "A"), L("result", "crash")).Add(7)
	reg.Gauge("wearos_instability").Set(12.5)
	h := reg.Histogram("binder_transact_seconds")
	h.Observe(0.0005)
	h.Observe(0.5)

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		"# TYPE qgj_intents_injected_total counter",
		`qgj_intents_injected_total{campaign="A",result="crash"} 7`,
		"# TYPE wearos_instability gauge",
		"wearos_instability 12.5",
		"# TYPE binder_transact_seconds histogram",
		`binder_transact_seconds_bucket{le="0.001"} 1`,
		`binder_transact_seconds_bucket{le="0.01"} 1`,
		`binder_transact_seconds_bucket{le="+Inf"} 2`,
		"binder_transact_seconds_count 2",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
}

// TestWritePrometheusLabelEscaping pins the text-format escaping contract:
// label values containing spaces, quotes, backslashes, or newlines must
// round-trip through a standards-conforming parser. The manifestation
// labels ("No Effect", "Crash only") are the values that hit this in
// practice.
func TestWritePrometheusLabelEscaping(t *testing.T) {
	reg := NewRegistry()
	reg.Gauge("analysis_components", L("manifestation", "No Effect")).Set(42)
	reg.Counter("odd_total", L("v", `back\slash "quoted"`+"\nnext")).Inc()

	var sb strings.Builder
	if err := reg.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`analysis_components{manifestation="No Effect"} 42`,
		`odd_total{v="back\\slash \"quoted\"\nnext"} 1`,
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("exposition missing %q:\n%s", want, out)
		}
	}
	// Every sample line must stay a single line: the raw newline in the
	// label value may not split it.
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if !strings.Contains(line, " ") || strings.Count(line, `"`)%2 != 0 {
			t.Fatalf("malformed sample line %q in:\n%s", line, out)
		}
	}
	// Round-trip per the exposition format's escape rules.
	i := strings.Index(out, `odd_total{v="`)
	if i < 0 {
		t.Fatalf("odd_total sample missing:\n%s", out)
	}
	rest := out[i+len(`odd_total{v="`):]
	j := strings.Index(rest, `"}`)
	if j < 0 {
		t.Fatalf("odd_total sample unterminated:\n%s", out)
	}
	unescaped := strings.NewReplacer(`\\`, "\\", `\"`, `"`, `\n`, "\n").Replace(rest[:j])
	if want := `back\slash "quoted"` + "\nnext"; unescaped != want {
		t.Fatalf("label value round-trip = %q, want %q", unescaped, want)
	}
}

func TestSnapshotJSONRoundTrip(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("a_total").Add(3)
	reg.Gauge("b", L("x", "y")).Set(1.25)
	reg.Histogram("c_seconds").Observe(1.5)

	snap := reg.Snapshot()
	data, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back Snapshot
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Counters["a_total"] != 3 {
		t.Fatalf("counters = %v", back.Counters)
	}
	if back.Gauges[`b{x="y"}`] != 1.25 {
		t.Fatalf("gauges = %v", back.Gauges)
	}
	hs, ok := back.Histograms["c_seconds"]
	if !ok || hs.Count != 1 || hs.Sum != 1.5 {
		t.Fatalf("histograms = %v", back.Histograms)
	}
	if hs.P50 < 1 || hs.P50 > 2 {
		t.Fatalf("p50 = %v, want within the observed bucket", hs.P50)
	}
}

func TestServeEndpoints(t *testing.T) {
	reg := NewRegistry()
	reg.Counter("served_total").Inc()

	srv, err := Serve("127.0.0.1:0", reg)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	get := func(path, wantType string) string {
		t.Helper()
		client := &http.Client{Timeout: 5 * time.Second}
		resp, err := client.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if wantType != "" {
			if ct := resp.Header.Get("Content-Type"); ct != wantType {
				t.Fatalf("GET %s: Content-Type %q, want %q", path, ct, wantType)
			}
		}
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return string(body)
	}

	if out := get("/metrics", "text/plain; version=0.0.4; charset=utf-8"); !strings.Contains(out, "served_total 1") {
		t.Fatalf("/metrics missing counter:\n%s", out)
	}
	if out := get("/vars", "application/json; charset=utf-8"); !strings.Contains(out, `"served_total": 1`) {
		t.Fatalf("/vars missing counter:\n%s", out)
	}
	if out := get("/healthz", "text/plain; charset=utf-8"); strings.TrimSpace(out) != "ok" {
		t.Fatalf("/healthz = %q, want ok", out)
	}
	if out := get("/", "text/plain; charset=utf-8"); !strings.Contains(out, "/healthz") {
		t.Fatalf("root index missing /healthz:\n%s", out)
	}
	if out := get("/debug/pprof/cmdline", ""); len(out) == 0 {
		t.Fatal("/debug/pprof/cmdline empty")
	}
}

// TestHandlerExtraRoutes pins the Route extension point: a mounted route
// serves and is listed by the root index, and the index lists only routes
// that are served.
func TestHandlerExtraRoutes(t *testing.T) {
	reg := NewRegistry()
	srv, err := Serve("127.0.0.1:0", reg, Route{
		Pattern: "/farm",
		Handler: http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
			w.Header().Set("Content-Type", "application/json; charset=utf-8")
			_, _ = w.Write([]byte(`{"shards":[]}`))
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr + "/farm")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(body), `"shards"`) {
		t.Fatalf("GET /farm: status %d body %q", resp.StatusCode, body)
	}
	resp, err = client.Get("http://" + srv.Addr + "/")
	if err != nil {
		t.Fatal(err)
	}
	body, _ = io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), "/farm") {
		t.Fatalf("root index missing /farm: %q", body)
	}
	for _, path := range strings.Fields(string(body)) {
		if !strings.HasPrefix(path, "/") || path == "/debug/pprof/" {
			continue
		}
		resp, err := client.Get("http://" + srv.Addr + path)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Errorf("root index lists %s, which answers %d", path, resp.StatusCode)
		}
	}
}
