package service

import (
	"context"
	"errors"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/farm"
)

// TestWorkerKeepsOneExecutor: a long-running worker serving three
// campaigns submitted one after another ends holding a single executor,
// the last campaign's, and every campaign still exports byte-identically
// to the in-process farm run of its spec (what farmd local writes).
func TestWorkerKeepsOneExecutor(t *testing.T) {
	coord, err := NewCoordinator(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Shutdown()
	ts := httptest.NewServer(Handler(coord))
	defer ts.Close()

	slot := &executorSlot{}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	done := make(chan error, 1)
	go func() {
		_, err := runWorker(ctx, WorkerOptions{Coordinator: ts.URL, Name: "long-lived", Poll: 10 * time.Millisecond}, slot)
		done <- err
	}()

	pkgs := []string{"com.heartwatch.wear", "com.strava.wear"}
	var lastFP string
	for _, spec := range []CampaignSpec{
		{Seed: 1, Campaigns: "A", Packages: pkgs, Quick: 10},
		{Seed: 2, Campaigns: "B", Packages: pkgs, Quick: 10},
		{Seed: 3, Campaigns: "F", Packages: pkgs, Quick: 10},
	} {
		info, err := coord.Submit(spec)
		if err != nil {
			t.Fatal(err)
		}
		got := waitExport(t, coord, info.ID)
		cfg, err := spec.FarmConfig()
		if err != nil {
			t.Fatal(err)
		}
		cfg.Sharding.Workers = 2
		res, err := farm.Run(cfg)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ExportResult(res, spec.Seed)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(want) {
			t.Errorf("campaign %s (seed %d) export differs from the in-process run", spec.Campaigns, spec.Seed)
		}
		lastFP = info.Fingerprint
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	if slot.ex == nil || slot.fingerprint != lastFP {
		t.Fatalf("worker holds the executor for %q, want only the last campaign's (%s)", slot.fingerprint, lastFP)
	}
}

// waitExport polls until campaign id has merged and returns its export.
func waitExport(t *testing.T, c *Coordinator, id string) []byte {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		data, err := c.Export(id)
		if err == nil {
			return data
		}
		if !errors.Is(err, ErrNotComplete) || time.Now().After(deadline) {
			t.Fatalf("export %s: %v", id, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
}
