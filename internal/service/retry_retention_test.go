package service_test

// External-protocol tests for the robustness satellites: workers surviving
// a flaky coordinator, campaign retention/archiving, and the fault-injection
// campaign running end to end through the service.

import (
	"context"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
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
	coord := newCoordinator(t, service.Options{LeaseTTL: 2 * time.Second})
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

// TestRetentionArchivesCompletedCampaigns checks the -retain window: the
// oldest completed campaign's artifacts move to DataDir/done/, its listing
// survives in memory and across a coordinator restart.
func TestRetentionArchivesCompletedCampaigns(t *testing.T) {
	dir := t.TempDir()
	coord := newCoordinator(t, service.Options{DataDir: dir, Retain: 1})

	first := completeCampaign(t, coord, tinySpec())
	spec2 := tinySpec()
	spec2.Seed = 2
	second := submitAndUpload(t, coord, spec2)

	// The second campaign's merge evicts the first; archiving runs after
	// finalize, so poll the listing.
	archived := waitForArchived(t, coord, first.ID)
	if archived.Shards != first.Shards || archived.Sent != first.Sent {
		t.Errorf("archived listing lost its tallies: %+v vs %+v", archived, first)
	}

	for _, name := range []string{first.ID + ".spec.json", first.ID + ".ckpt", first.ID + ".info.json"} {
		if _, err := os.Stat(filepath.Join(dir, "done", name)); err != nil {
			t.Errorf("archived artifact missing: %v", err)
		}
	}
	if _, err := os.Stat(filepath.Join(dir, first.ID+".spec.json")); !os.IsNotExist(err) {
		t.Errorf("archived sidecar still in the live dir (err=%v)", err)
	}
	if _, err := coord.Export(first.ID); err == nil || !strings.Contains(err.Error(), "unknown campaign") {
		t.Errorf("export of archived campaign: err = %v, want unknown campaign", err)
	}
	// The survivor is untouched.
	if _, err := coord.Export(second.ID); err != nil {
		t.Errorf("export of retained campaign: %v", err)
	}

	// A restarted coordinator still lists the archived ID.
	if err := coord.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	restarted := newCoordinator(t, service.Options{DataDir: dir, Retain: 1})
	if got := waitForArchived(t, restarted, first.ID); got.Created.IsZero() {
		t.Errorf("restarted listing lost the archive timestamp: %+v", got)
	}
}

// submitAndUpload submits a one-shard spec and uploads that shard's result
// (the merge then runs in the background).
func submitAndUpload(t *testing.T, coord *service.Coordinator, spec service.CampaignSpec) service.CampaignInfo {
	t.Helper()
	info, err := coord.Submit(spec)
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	grant, err := coord.Lease("w1")
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	if err := coord.Complete(grant.LeaseID, grant.Fingerprint, executeShard(t, grant)); err != nil {
		t.Fatalf("complete: %v", err)
	}
	return info
}

// completeCampaign runs a one-shard spec to state complete.
func completeCampaign(t *testing.T, coord *service.Coordinator, spec service.CampaignSpec) service.CampaignInfo {
	t.Helper()
	info := submitAndUpload(t, coord, spec)
	return waitForState(t, func() (service.CampaignInfo, error) { return coord.Campaign(info.ID) }, service.CampaignComplete)
}

// TestArchiveFailureKeepsCampaignHosted: when a campaign's artifacts cannot
// move to DataDir/done/ (here its info path is taken by a directory), the
// campaign stays hosted with its files in place and the failure is
// counted; and a restart refuses the unreadable info entry instead of
// silently dropping it from the listing.
func TestArchiveFailureKeepsCampaignHosted(t *testing.T) {
	dir := t.TempDir()
	coord := newCoordinator(t, service.Options{DataDir: dir, Retain: 1})
	first := completeCampaign(t, coord, tinySpec())
	blocker := filepath.Join(dir, "done", first.ID+".info.json")
	if err := os.MkdirAll(blocker, 0o755); err != nil {
		t.Fatal(err)
	}
	spec2 := tinySpec()
	spec2.Seed = 2
	completeCampaign(t, coord, spec2)

	deadline := time.Now().Add(30 * time.Second)
	for coord.Telemetry().Snapshot().Counters["service_archive_failures_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("the failed archive was never counted")
		}
		time.Sleep(20 * time.Millisecond)
	}
	if got, err := coord.Campaign(first.ID); err != nil || got.State != service.CampaignComplete {
		t.Fatalf("campaign after a failed archive: %+v, %v; want it still hosted and complete", got, err)
	}
	if _, err := coord.Export(first.ID); err != nil {
		t.Errorf("export after a failed archive: %v", err)
	}
	for _, name := range []string{first.ID + ".spec.json", first.ID + ".ckpt"} {
		if _, err := os.Stat(filepath.Join(dir, name)); err != nil {
			t.Errorf("artifact left the live dir after a failed archive: %v", err)
		}
	}
	if err := coord.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if _, err := service.NewCoordinator(service.Options{DataDir: dir}); err == nil || !strings.Contains(err.Error(), first.ID+".info.json") {
		t.Fatalf("restart over an unreadable archive info: err = %v, want it refused", err)
	}
}

// waitForArchived polls the campaign listing until id shows state archived.
func waitForArchived(t *testing.T, coord *service.Coordinator, id string) service.CampaignInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		for _, info := range coord.Campaigns() {
			if info.ID == id && info.State == service.CampaignArchived {
				return info
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign %s never reached state archived: %+v", id, coord.Campaigns())
		}
		time.Sleep(20 * time.Millisecond)
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

	coord := newCoordinator(t, service.Options{})
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
