package service_test

// External-protocol tests of the service's robustness: workers surviving a
// flaky coordinator, uploads refused while the coordinator drains, restarts
// restoring submission order, and the fault-injection campaign running end
// to end through the service.

import (
	"context"
	"encoding/json"
	"log"
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/service"
)

// flakyHandler wraps h and fails each distinct (method, path) its first
// `failures` times with a 500 before it reaches the coordinator — the shape
// of a proxy hiccup or an overloaded accept queue. Keying by request rather
// than a global counter keeps the injection deterministic: every call
// succeeds within failures+1 attempts no matter how requests interleave.
func flakyHandler(h http.Handler, failures int) (http.Handler, *atomic.Int64) {
	var mu sync.Mutex
	seen := make(map[string]int)
	var injected atomic.Int64
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		key := r.Method + " " + r.URL.Path
		mu.Lock()
		n := seen[key]
		seen[key]++
		mu.Unlock()
		if n < failures {
			injected.Add(1)
			http.Error(w, `{"error":"injected transient failure"}`, http.StatusInternalServerError)
			return
		}
		h.ServeHTTP(w, r)
	}), &injected
}

// TestWorkerSurvivesFlakyCoordinator runs the full distributed protocol
// through a coordinator that 500s the first two hits of every endpoint: the
// client's retry loop must absorb every injected failure and the merged
// export must still be byte-identical to the single-process run.
func TestWorkerSurvivesFlakyCoordinator(t *testing.T) {
	coord := newCoordinator(t, service.Options{DataDir: t.TempDir(), LeaseTTL: 2 * time.Second})
	flaky, injected := flakyHandler(service.Handler(coord), 2)
	ts := httptest.NewServer(flaky)
	defer ts.Close()

	// The CLI client talks through the same flaky front door.
	client := service.WithFastRetry(service.NewClient(ts.URL, nil))
	info, err := client.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit through flaky coordinator: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan service.WorkerStats, 1)
	go func() {
		s, err := service.RunWorker(ctx, service.WorkerOptions{
			Coordinator: ts.URL,
			Name:        "flaky-w",
			Poll:        20 * time.Millisecond,
		})
		if err != nil {
			t.Errorf("worker: %v", err)
		}
		done <- s
	}()

	waitForState(t, func() (service.CampaignInfo, error) { return client.Campaign(info.ID) }, service.CampaignComplete)
	cancel()
	stats := <-done
	if stats.Executed != 4 {
		t.Errorf("worker executed %d shards, want 4", stats.Executed)
	}
	if injected.Load() == 0 {
		t.Fatal("the flaky handler never injected a failure; the test proves nothing")
	}

	got, err := client.Export(info.ID)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	want, err := serialBaseline()
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("export through flaky coordinator differs from single-process run")
	}
	t.Logf("worker survived %d injected failures", injected.Load())
}

// TestUploadDuringDrainIsNotAcknowledged: an upload that reaches a
// coordinator after Shutdown answers 503 instead of being acknowledged
// without a journal line. The worker logs the drain and exits cleanly, and
// a coordinator restarted on the same dir re-queues the shard.
func TestUploadDuringDrainIsNotAcknowledged(t *testing.T) {
	dir := t.TempDir()
	coord := newCoordinator(t, service.Options{DataDir: dir})
	info, err := coord.Submit(tinySpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// The coordinator starts draining after the shard is leased and
	// executed, just before its upload lands.
	h := service.Handler(coord)
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if strings.HasSuffix(r.URL.Path, "/result") {
			coord.Shutdown()
		}
		h.ServeHTTP(w, r)
	}))
	defer ts.Close()

	var logged strings.Builder
	stats, err := service.RunWorker(context.Background(), service.WorkerOptions{
		Coordinator: ts.URL,
		Name:        "w1",
		Log:         log.New(&logged, "", 0),
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if stats.Executed != 0 || !strings.Contains(logged.String(), "draining") {
		t.Fatalf("worker executed %d shards and logged %q; want 0 and a drain", stats.Executed, logged.String())
	}
	if got, err := coord.Campaign(info.ID); err != nil || got.Done != 0 {
		t.Fatalf("drained coordinator reads %+v, %v; want 0 shards done", got, err)
	}

	restarted := newCoordinator(t, service.Options{DataDir: dir})
	got, err := restarted.Campaign(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.Done != 0 || got.Pending != 1 {
		t.Fatalf("restarted campaign: done %d, pending %d; want the shard re-queued", got.Done, got.Pending)
	}
}

// TestRestartRestoresSubmissionOrder: eleven campaigns, whose IDs do not
// sort as strings in submission order (c10 < c2), come back from a restart
// in submission order, so leases stay FIFO and /farm still defaults to the
// newest campaign.
func TestRestartRestoresSubmissionOrder(t *testing.T) {
	dir := t.TempDir()
	first := newCoordinator(t, service.Options{DataDir: dir})
	var ids []string
	for i := range 11 {
		spec := tinySpec()
		if i == 10 {
			// The newest campaign is the one with four shards.
			spec = testSpec()
		}
		info, err := first.Submit(spec)
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		ids = append(ids, info.ID)
	}
	if err := first.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	second := newCoordinator(t, service.Options{DataDir: dir})
	var got []string
	for _, info := range second.Campaigns() {
		got = append(got, info.ID)
	}
	if !slices.Equal(got, ids) {
		t.Fatalf("restored campaigns %v, want submission order %v", got, ids)
	}
	for _, want := range ids[:2] {
		g, err := second.Lease("w")
		if err != nil {
			t.Fatal(err)
		}
		if g.CampaignID != want {
			t.Fatalf("lease went to %s, want FIFO %s", g.CampaignID, want)
		}
	}
	rec := httptest.NewRecorder()
	service.Handler(second).ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/farm", nil))
	var board struct {
		Total int `json:"total"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &board); err != nil || board.Total != 4 {
		t.Fatalf("/farm default: status %d, %d shards (%v); want the newest campaign's 4", rec.Code, board.Total, err)
	}
}

// TestDistributedFaultCampaign runs campaign F through the coordinator and
// networked workers and checks the merged export is byte-identical to the
// in-process run, with the fault-resilience table populated.
func TestDistributedFaultCampaign(t *testing.T) {
	spec := service.CampaignSpec{
		Seed:      1,
		Campaigns: "F",
		Packages:  []string{"com.heartwatch.wear", "com.strava.wear"},
		Quick:     10,
	}
	cfg, err := spec.FarmConfig()
	if err != nil {
		t.Fatalf("farm config: %v", err)
	}
	cfg.Sharding.Workers = 1
	res, err := farm.Run(cfg)
	if err != nil {
		t.Fatalf("serial fault run: %v", err)
	}
	want, err := service.ExportResult(res, spec.Seed)
	if err != nil {
		t.Fatalf("serial export: %v", err)
	}
	if !strings.Contains(string(want), `"faultResilience"`) {
		t.Fatal("serial fault export carries no faultResilience table")
	}

	coord := newCoordinator(t, service.Options{DataDir: t.TempDir()})
	ts := httptest.NewServer(service.Handler(coord))
	defer ts.Close()
	client := service.NewClient(ts.URL, nil)
	info, err := client.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for i := 0; i < 2; i++ {
		go service.RunWorker(ctx, service.WorkerOptions{
			Coordinator: ts.URL,
			Name:        "fw",
			Poll:        20 * time.Millisecond,
		})
	}
	waitForState(t, func() (service.CampaignInfo, error) { return client.Campaign(info.ID) }, service.CampaignComplete)
	cancel()

	got, err := client.Export(info.ID)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("distributed fault export differs from single-process run:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}
}
