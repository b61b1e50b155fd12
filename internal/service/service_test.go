package service_test

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/farm"
	"repro/internal/service"
	"repro/internal/telemetry"
)

// testSpec is the campaign the distributed tests shard: two packages, two
// campaigns -> four shards, small enough to execute many times per test run.
func testSpec() service.CampaignSpec {
	return service.CampaignSpec{
		Seed:      1,
		Campaigns: "AB",
		Packages:  []string{"com.heartwatch.wear", "com.strava.wear"},
		Quick:     10,
	}
}

// tinySpec plans exactly one shard — the unit the lease edge-case table
// operates on.
func tinySpec() service.CampaignSpec {
	return service.CampaignSpec{
		Seed:      1,
		Campaigns: "A",
		Packages:  []string{"com.heartwatch.wear"},
		Quick:     10,
	}
}

// serialBaseline runs testSpec through the in-process farm engine once per
// test binary and returns the canonical export — the bytes every
// distributed execution must reproduce exactly.
var serialBaseline = sync.OnceValues(func() ([]byte, error) {
	spec := testSpec()
	cfg, err := spec.FarmConfig()
	if err != nil {
		return nil, err
	}
	cfg.Sharding.Workers = 1
	res, err := farm.Run(cfg)
	if err != nil {
		return nil, err
	}
	return service.ExportResult(res, spec.Seed)
})

// fakeClock drives lease expiry without sleeping.
type fakeClock struct {
	mu sync.Mutex
	t  time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{t: time.Unix(1700000000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.t
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.t = c.t.Add(d)
	c.mu.Unlock()
}

func newCoordinator(t *testing.T, opts service.Options) *service.Coordinator {
	t.Helper()
	c, err := service.NewCoordinator(opts)
	if err != nil {
		t.Fatalf("NewCoordinator: %v", err)
	}
	t.Cleanup(func() { c.Shutdown() })
	return c
}

// executeShard runs one shard of the lease's campaign locally and returns
// the journal-form record a worker would upload.
func executeShard(t *testing.T, grant service.LeaseGrant) []byte {
	t.Helper()
	plan, err := grant.Spec.Plan()
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	sr, err := plan.NewExecutor().ExecuteShard(grant.Shard)
	if err != nil {
		t.Fatalf("execute shard %d: %v", grant.Shard, err)
	}
	record, err := farm.EncodeShardRecord(grant.Shard, sr)
	if err != nil {
		t.Fatalf("encode record: %v", err)
	}
	return record
}

func counterValue(reg *telemetry.Registry, name string) uint64 {
	return reg.Snapshot().Counters[name]
}

func waitForState(t *testing.T, fetch func() (service.CampaignInfo, error), state string) service.CampaignInfo {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		info, err := fetch()
		if err != nil {
			t.Fatalf("campaign info: %v", err)
		}
		if info.State == state {
			return info
		}
		if time.Now().After(deadline) {
			t.Fatalf("campaign stuck in state %q (want %q): %+v", info.State, state, info)
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// TestLeaseEdgeCases drives the lease protocol through its corner states
// with a fake clock: expiry mid-shard, the double-grant race, heartbeats
// after reclamation, and fingerprint-mismatch rejection.
func TestLeaseEdgeCases(t *testing.T) {
	cases := []struct {
		name string
		spec service.CampaignSpec
		run  func(t *testing.T, c *service.Coordinator, clk *fakeClock, reg *telemetry.Registry)
	}{
		{
			name: "expiry mid-shard reclaims and re-grants",
			spec: tinySpec(),
			run: func(t *testing.T, c *service.Coordinator, clk *fakeClock, reg *telemetry.Registry) {
				victim, err := c.Lease("victim")
				if err != nil {
					t.Fatalf("victim lease: %v", err)
				}
				// Shard is held: nothing for a second worker.
				if _, err := c.Lease("thief"); !errors.Is(err, service.ErrNoWork) {
					t.Fatalf("lease while held = %v, want ErrNoWork", err)
				}
				clk.Advance(c.LeaseTTL() + time.Second)
				stolen, err := c.Lease("thief")
				if err != nil {
					t.Fatalf("lease after expiry: %v", err)
				}
				if stolen.Shard != victim.Shard {
					t.Fatalf("thief got shard %d, want reclaimed shard %d", stolen.Shard, victim.Shard)
				}
				// The victim finishes late: its upload must be refused — the
				// shard belongs to the thief now.
				record := executeShard(t, victim)
				if err := c.Complete(victim.LeaseID, victim.Fingerprint, record); !errors.Is(err, service.ErrLeaseGone) {
					t.Fatalf("late Complete = %v, want ErrLeaseGone", err)
				}
				if err := c.Complete(stolen.LeaseID, stolen.Fingerprint, record); err != nil {
					t.Fatalf("thief Complete: %v", err)
				}
				if got := counterValue(reg, "service_leases_expired_total"); got != 1 {
					t.Errorf("leases_expired = %d, want 1", got)
				}
				if got := counterValue(reg, "service_leases_stolen_total"); got != 1 {
					t.Errorf("leases_stolen = %d, want 1", got)
				}
			},
		},
		{
			name: "double-grant race hands out distinct shards",
			spec: testSpec(),
			run: func(t *testing.T, c *service.Coordinator, clk *fakeClock, reg *telemetry.Registry) {
				const racers = 8
				grants := make(chan service.LeaseGrant, racers)
				var wg sync.WaitGroup
				for i := 0; i < racers; i++ {
					wg.Add(1)
					go func(i int) {
						defer wg.Done()
						if g, err := c.Lease(fmt.Sprintf("racer-%d", i)); err == nil {
							grants <- g
						}
					}(i)
				}
				wg.Wait()
				close(grants)
				seen := map[int]string{}
				for g := range grants {
					if prev, dup := seen[g.Shard]; dup {
						t.Fatalf("shard %d granted twice (%s and %s)", g.Shard, prev, g.LeaseID)
					}
					seen[g.Shard] = g.LeaseID
				}
				if len(seen) != 4 {
					t.Fatalf("granted %d shards, want all 4", len(seen))
				}
				if _, err := c.Lease("straggler"); !errors.Is(err, service.ErrNoWork) {
					t.Fatalf("lease on drained queue = %v, want ErrNoWork", err)
				}
			},
		},
		{
			name: "heartbeat after reclamation answers gone",
			spec: tinySpec(),
			run: func(t *testing.T, c *service.Coordinator, clk *fakeClock, reg *telemetry.Registry) {
				g, err := c.Lease("w1")
				if err != nil {
					t.Fatalf("lease: %v", err)
				}
				if _, err := c.Heartbeat(g.LeaseID); err != nil {
					t.Fatalf("live heartbeat: %v", err)
				}
				clk.Advance(c.LeaseTTL() + time.Second)
				if _, err := c.Heartbeat(g.LeaseID); !errors.Is(err, service.ErrLeaseGone) {
					t.Fatalf("heartbeat after expiry = %v, want ErrLeaseGone", err)
				}
				// Heartbeats extend: a lease kept warm survives any number
				// of TTL windows.
				g2, err := c.Lease("w2")
				if err != nil {
					t.Fatalf("re-lease: %v", err)
				}
				for i := 0; i < 5; i++ {
					clk.Advance(c.LeaseTTL() / 2)
					if _, err := c.Heartbeat(g2.LeaseID); err != nil {
						t.Fatalf("heartbeat %d: %v", i, err)
					}
				}
			},
		},
		{
			name: "fingerprint mismatch rejects upload and requeues",
			spec: tinySpec(),
			run: func(t *testing.T, c *service.Coordinator, clk *fakeClock, reg *telemetry.Registry) {
				g, err := c.Lease("w1")
				if err != nil {
					t.Fatalf("lease: %v", err)
				}
				record := executeShard(t, g)
				if err := c.Complete(g.LeaseID, "00000000deadbeef", record); !errors.Is(err, service.ErrBadRecord) {
					t.Fatalf("mismatched Complete = %v, want ErrBadRecord", err)
				}
				if got := counterValue(reg, "service_results_rejected_total"); got != 1 {
					t.Errorf("results_rejected = %d, want 1", got)
				}
				// The rejected upload voided the lease and requeued the
				// shard; a clean retry completes it.
				if err := c.Complete(g.LeaseID, g.Fingerprint, record); !errors.Is(err, service.ErrLeaseGone) {
					t.Fatalf("Complete on voided lease = %v, want ErrLeaseGone", err)
				}
				g2, err := c.Lease("w2")
				if err != nil {
					t.Fatalf("re-lease after reject: %v", err)
				}
				if g2.Shard != g.Shard {
					t.Fatalf("requeued shard = %d, want %d", g2.Shard, g.Shard)
				}
				if err := c.Complete(g2.LeaseID, g2.Fingerprint, record); err != nil {
					t.Fatalf("clean retry: %v", err)
				}
			},
		},
		{
			name: "wrong shard index in record is rejected",
			spec: tinySpec(),
			run: func(t *testing.T, c *service.Coordinator, clk *fakeClock, reg *telemetry.Registry) {
				g, err := c.Lease("w1")
				if err != nil {
					t.Fatalf("lease: %v", err)
				}
				plan, err := g.Spec.Plan()
				if err != nil {
					t.Fatalf("plan: %v", err)
				}
				sr, err := plan.NewExecutor().ExecuteShard(g.Shard)
				if err != nil {
					t.Fatalf("execute: %v", err)
				}
				record, err := farm.EncodeShardRecord(g.Shard+7, sr)
				if err != nil {
					t.Fatalf("encode: %v", err)
				}
				if err := c.Complete(g.LeaseID, g.Fingerprint, record); !errors.Is(err, service.ErrBadRecord) {
					t.Fatalf("wrong-index Complete = %v, want ErrBadRecord", err)
				}
			},
		},
		{
			name: "release returns the shard immediately",
			spec: tinySpec(),
			run: func(t *testing.T, c *service.Coordinator, clk *fakeClock, reg *telemetry.Registry) {
				g, err := c.Lease("w1")
				if err != nil {
					t.Fatalf("lease: %v", err)
				}
				if err := c.Release(g.LeaseID); err != nil {
					t.Fatalf("release: %v", err)
				}
				if err := c.Release(g.LeaseID); !errors.Is(err, service.ErrLeaseGone) {
					t.Fatalf("double release = %v, want ErrLeaseGone", err)
				}
				if _, err := c.Lease("w2"); err != nil {
					t.Fatalf("re-lease after release: %v", err)
				}
				if got := counterValue(reg, "service_leases_released_total"); got != 1 {
					t.Errorf("leases_released = %d, want 1", got)
				}
			},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			clk := newFakeClock()
			reg := telemetry.NewRegistry()
			c := newCoordinator(t, service.Options{Telemetry: reg, Clock: clk.Now})
			if _, err := c.Submit(tc.spec); err != nil {
				t.Fatalf("submit: %v", err)
			}
			tc.run(t, c, clk, reg)
		})
	}
}

// TestDistributedMergeByteIdentical is the acceptance invariant end to end:
// a campaign sharded over HTTP across two workers — with a third "worker"
// killed mid-lease so its shard is reclaimed and re-executed — merges to an
// export byte-identical to the single-process farm run of the same spec.
func TestDistributedMergeByteIdentical(t *testing.T) {
	reg := telemetry.NewRegistry()
	coord := newCoordinator(t, service.Options{
		DataDir:   t.TempDir(),
		LeaseTTL:  200 * time.Millisecond,
		Telemetry: reg,
	})
	ts := httptest.NewServer(service.Handler(coord))
	defer ts.Close()
	client := service.NewClient(ts.URL, nil)

	info, err := client.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	if info.Shards != 4 {
		t.Fatalf("shards = %d, want 4", info.Shards)
	}

	// The victim takes the largest shard and dies: no heartbeat, no upload.
	victim, err := client.Lease("victim")
	if err != nil {
		t.Fatalf("victim lease: %v", err)
	}
	t.Logf("victim holds shard %d (%s); killing it", victim.Shard, victim.Key)

	// Two live workers chew through the queue; the victim's shard joins it
	// once the reaper notices the missing heartbeats.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var wg sync.WaitGroup
	stats := make([]service.WorkerStats, 2)
	for i := range stats {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s, err := service.RunWorker(ctx, service.WorkerOptions{
				Coordinator: ts.URL,
				Name:        fmt.Sprintf("w%d", i),
				Poll:        20 * time.Millisecond,
			})
			if err != nil {
				t.Errorf("worker %d: %v", i, err)
			}
			stats[i] = s
		}(i)
	}

	final := waitForState(t, func() (service.CampaignInfo, error) { return client.Campaign(info.ID) }, service.CampaignComplete)
	cancel()
	wg.Wait()

	if got := stats[0].Executed + stats[1].Executed; got != 4 {
		t.Errorf("live workers executed %d shards, want 4 (victim's shard re-executed)", got)
	}
	if counterValue(reg, "service_leases_expired_total") == 0 {
		t.Error("victim's lease never expired")
	}
	if counterValue(reg, "service_leases_stolen_total") == 0 {
		t.Error("victim's shard was never re-granted")
	}
	if final.Done != 4 || final.Pending != 0 || final.Leased != 0 {
		t.Errorf("final tallies = %+v", final)
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
		t.Errorf("distributed export differs from single-process run:\n--- serial ---\n%s\n--- distributed ---\n%s", want, got)
	}

	// The triage stream is closed and its bucket totals agree with the
	// merged export's triage section.
	page, err := client.Triage(info.ID, 0, false)
	if err != nil {
		t.Fatalf("triage stream: %v", err)
	}
	if !page.Closed {
		t.Error("triage stream still open after merge")
	}
	var exp struct {
		Triage struct {
			Buckets []struct {
				Hash  string `json:"hash"`
				Count int    `json:"count"`
			} `json:"buckets"`
		} `json:"triage"`
	}
	if err := json.Unmarshal(got, &exp); err != nil {
		t.Fatalf("parse export: %v", err)
	}
	streamCounts := map[uint64]int{}
	for _, up := range page.Updates {
		streamCounts[up.Hash] = up.Count
	}
	if len(exp.Triage.Buckets) == 0 {
		t.Fatal("export has no triage buckets; the test fleet should crash")
	}
	if len(streamCounts) != len(exp.Triage.Buckets) {
		t.Errorf("stream saw %d buckets, export has %d", len(streamCounts), len(exp.Triage.Buckets))
	}
}

// TestCoordinatorRestartResumes proves the queue is durable: a coordinator
// shut down mid-campaign comes back with completed shards restored from the
// journal, hands out only the remainder, and still merges byte-identically.
func TestCoordinatorRestartResumes(t *testing.T) {
	dir := t.TempDir()
	first := newCoordinator(t, service.Options{DataDir: dir})
	info, err := first.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	// Complete two of four shards, then stop the coordinator.
	for i := 0; i < 2; i++ {
		g, err := first.Lease("pre-restart")
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		if err := first.Complete(g.LeaseID, g.Fingerprint, executeShard(t, g)); err != nil {
			t.Fatalf("complete %d: %v", i, err)
		}
	}
	if err := first.Shutdown(); err != nil {
		t.Fatalf("shutdown: %v", err)
	}

	second := newCoordinator(t, service.Options{DataDir: dir})
	infos := second.Campaigns()
	if len(infos) != 1 || infos[0].ID != info.ID {
		t.Fatalf("restored campaigns = %+v, want [%s]", infos, info.ID)
	}
	if infos[0].Done != 2 || infos[0].Resumed != 2 || infos[0].Pending != 2 {
		t.Fatalf("restored tallies = %+v, want 2 done (resumed), 2 pending", infos[0])
	}

	ts := httptest.NewServer(service.Handler(second))
	defer ts.Close()
	stats, err := service.RunWorker(context.Background(), service.WorkerOptions{
		Coordinator:  ts.URL,
		Name:         "post-restart",
		ExitWhenIdle: true,
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	if stats.Executed != 2 {
		t.Errorf("post-restart worker executed %d shards, want exactly the 2 missing", stats.Executed)
	}

	client := service.NewClient(ts.URL, nil)
	waitForState(t, func() (service.CampaignInfo, error) { return client.Campaign(info.ID) }, service.CampaignComplete)
	got, err := client.Export(info.ID)
	if err != nil {
		t.Fatalf("export: %v", err)
	}
	want, err := serialBaseline()
	if err != nil {
		t.Fatalf("serial baseline: %v", err)
	}
	if string(got) != string(want) {
		t.Error("post-restart export differs from single-process run")
	}
}

// TestOldSpecFieldsStillLoad: specs written while the boot-mode knobs
// existed still carry "disableSnapshot" and "disablePersist". A submit body
// and an on-disk spec sidecar with them must decode, plan to the bare
// spec's fingerprint, and survive a coordinator restart with an export
// byte-identical to the single-process run.
func TestOldSpecFieldsStillLoad(t *testing.T) {
	const oldFields = `"disableSnapshot":true,"disablePersist":true,`
	plan, err := testSpec().Plan()
	if err != nil {
		t.Fatal(err)
	}
	wantFP := fmt.Sprintf("%016x", plan.Fingerprint())

	dir := t.TempDir()
	first := newCoordinator(t, service.Options{DataDir: dir})
	ts := httptest.NewServer(service.Handler(first))
	bare, err := json.Marshal(testSpec())
	if err != nil {
		t.Fatal(err)
	}
	body := strings.Replace(string(bare), "{", "{"+oldFields, 1)
	resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	var info service.CampaignInfo
	err = json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()
	if err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("old-style submit: status %d, err %v", resp.StatusCode, err)
	}
	ts.Close()
	if info.Fingerprint != wantFP {
		t.Fatalf("old-style spec fingerprint %s, want the bare spec's %s", info.Fingerprint, wantFP)
	}
	g, err := first.Lease("pre-restart")
	if err != nil {
		t.Fatal(err)
	}
	if err := first.Complete(g.LeaseID, g.Fingerprint, executeShard(t, g)); err != nil {
		t.Fatal(err)
	}
	if err := first.Shutdown(); err != nil {
		t.Fatal(err)
	}

	// Put the fields back into the sidecar, as an older coordinator wrote it.
	sidecar := filepath.Join(dir, info.ID+".spec.json")
	data, err := os.ReadFile(sidecar)
	if err != nil {
		t.Fatal(err)
	}
	old := strings.Replace(string(data), `"spec": {`, `"spec": {`+oldFields, 1)
	if old == string(data) {
		t.Fatalf("sidecar has no spec object: %s", data)
	}
	if err := os.WriteFile(sidecar, []byte(old), 0o644); err != nil {
		t.Fatal(err)
	}

	second := newCoordinator(t, service.Options{DataDir: dir})
	infos := second.Campaigns()
	if len(infos) != 1 || infos[0].Fingerprint != wantFP || infos[0].Done != 1 {
		t.Fatalf("restored campaigns = %+v, want %s with 1 shard done", infos, wantFP)
	}
	ts = httptest.NewServer(service.Handler(second))
	defer ts.Close()
	if _, err := service.RunWorker(context.Background(), service.WorkerOptions{
		Coordinator:  ts.URL,
		Name:         "post-restart",
		ExitWhenIdle: true,
	}); err != nil {
		t.Fatal(err)
	}
	client := service.NewClient(ts.URL, nil)
	waitForState(t, func() (service.CampaignInfo, error) { return client.Campaign(info.ID) }, service.CampaignComplete)
	got, err := client.Export(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	want, err := serialBaseline()
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(want) {
		t.Error("old-spec campaign export differs from single-process run")
	}
}

// TestWorkerDrainReleasesLease: a worker cancelled before it starts
// executing hands its lease back instead of letting the TTL run out.
func TestWorkerDrainReleasesLease(t *testing.T) {
	reg := telemetry.NewRegistry()
	coord := newCoordinator(t, service.Options{Telemetry: reg})
	ts := httptest.NewServer(service.Handler(coord))
	defer ts.Close()
	client := service.NewClient(ts.URL, nil)

	info, err := client.Submit(tinySpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := service.RunWorker(ctx, service.WorkerOptions{
			Coordinator: ts.URL,
			Name:        "drainer",
			Poll:        10 * time.Millisecond,
			Throttle:    time.Hour, // park the worker between lease and execution
		})
		done <- err
	}()

	// Wait until the worker holds the lease, then drain it.
	deadline := time.Now().Add(10 * time.Second)
	for {
		inf, err := client.Campaign(info.ID)
		if err != nil {
			t.Fatalf("info: %v", err)
		}
		if inf.Leased == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("worker never took the lease")
		}
		time.Sleep(10 * time.Millisecond)
	}
	cancel()
	if err := <-done; err != nil {
		t.Fatalf("worker: %v", err)
	}
	inf, err := client.Campaign(info.ID)
	if err != nil {
		t.Fatalf("info: %v", err)
	}
	if inf.Leased != 0 || inf.Pending != 1 {
		t.Errorf("after drain: %d leased, %d pending; want the shard released", inf.Leased, inf.Pending)
	}
	if got := counterValue(reg, "service_leases_released_total"); got != 1 {
		t.Errorf("leases_released = %d, want 1", got)
	}
	if got := counterValue(reg, "service_leases_expired_total"); got != 0 {
		t.Errorf("leases_expired = %d, want 0 (drain must not rely on expiry)", got)
	}
}

// TestSubmitValidation rejects malformed specs with useful errors.
func TestSubmitValidation(t *testing.T) {
	coord := newCoordinator(t, service.Options{})
	ts := httptest.NewServer(service.Handler(coord))
	defer ts.Close()
	cases := []struct {
		name string
		spec service.CampaignSpec
		want string
	}{
		{"unknown fleet", service.CampaignSpec{Seed: 1, Fleet: "tablet", Quick: 10}, "tablet"},
		{"bad campaign letter", service.CampaignSpec{Seed: 1, Campaigns: "AX", Quick: 10}, "unknown campaign"},
		{"unknown package", service.CampaignSpec{Seed: 1, Packages: []string{"com.nope"}, Quick: 10}, "com.nope"},
		// A repeated letter would plan two shards under one key and the
		// merge would multiply that campaign's counts.
		{"repeated campaign letter", service.CampaignSpec{Seed: 1, Campaigns: "AA", Quick: 10}, "campaign A listed twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			body, _ := json.Marshal(tc.spec)
			resp, err := http.Post(ts.URL+"/api/v1/campaigns", "application/json", strings.NewReader(string(body)))
			if err != nil {
				t.Fatal(err)
			}
			msg, _ := io.ReadAll(resp.Body)
			resp.Body.Close()
			if resp.StatusCode != http.StatusBadRequest || !strings.Contains(string(msg), tc.want) {
				t.Fatalf("submit: status %d body %q, want 400 naming %s", resp.StatusCode, msg, tc.want)
			}
		})
	}
	if got := coord.Campaigns(); len(got) != 0 {
		t.Fatalf("rejected submits left campaigns %v", got)
	}
}

// TestHTTPProtocolSurface pins the API's error contract: JSON error bodies
// with the documented status codes, 204 on an empty queue, and the /farm
// board with its campaign filter.
func TestHTTPProtocolSurface(t *testing.T) {
	coord := newCoordinator(t, service.Options{})
	ts := httptest.NewServer(service.Handler(coord))
	defer ts.Close()

	getJSON := func(path string) (int, map[string]any) {
		t.Helper()
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		var m map[string]any
		if len(body) > 0 {
			if err := json.Unmarshal(body, &m); err != nil {
				t.Fatalf("GET %s: non-JSON body %q", path, body)
			}
		}
		return resp.StatusCode, m
	}

	// Empty service: unknown campaign and empty board both 404 with JSON.
	if code, m := getJSON("/api/v1/campaigns/nope"); code != http.StatusNotFound || m["error"] == "" {
		t.Errorf("unknown campaign: code=%d body=%v", code, m)
	}
	if code, m := getJSON("/farm"); code != http.StatusNotFound || m["error"] == "" {
		t.Errorf("empty /farm: code=%d body=%v", code, m)
	}

	// Empty queue: lease answers 204.
	resp, err := http.Post(ts.URL+"/api/v1/leases", "application/json", strings.NewReader(`{"worker":"w"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Errorf("lease on empty queue: %d, want 204", resp.StatusCode)
	}

	client := service.NewClient(ts.URL, nil)
	info, err := client.Submit(testSpec())
	if err != nil {
		t.Fatalf("submit: %v", err)
	}

	// Export before completion is a conflict.
	if _, err := client.Export(info.ID); !errors.Is(err, service.ErrBadRecord) {
		t.Errorf("early export error = %v, want 409-mapped error", err)
	}

	// Heartbeat on a never-granted lease is gone.
	if err := client.Heartbeat("l999-bogus"); !errors.Is(err, service.ErrLeaseGone) {
		t.Errorf("bogus heartbeat = %v, want ErrLeaseGone", err)
	}

	// The board serves the submitted campaign, by default and by ID, and
	// filters by campaign letter via ?letter=.
	if code, m := getJSON("/farm"); code != http.StatusOK || m["total"] != float64(4) {
		t.Errorf("/farm: code=%d total=%v", code, m["total"])
	}
	if code, _ := getJSON("/farm?campaign=" + info.ID); code != http.StatusOK {
		t.Errorf("/farm?campaign=%s: code=%d", info.ID, code)
	}
	if code, m := getJSON("/farm?campaign=bogus"); code != http.StatusNotFound || m["error"] == "" {
		t.Errorf("/farm?campaign=bogus: code=%d body=%v", code, m)
	}
	if code, m := getJSON("/farm?campaign=" + info.ID + "&letter=A"); code != http.StatusOK || m["total"] != float64(2) {
		t.Errorf("/farm letter filter: code=%d total=%v", code, m["total"])
	}
	if code, m := getJSON("/farm?campaign=" + info.ID + "&letter=Z"); code != http.StatusNotFound || m["error"] == "" {
		t.Errorf("/farm letter=Z: code=%d body=%v", code, m)
	}

	// Per-campaign metrics expose in Prometheus text form.
	mresp, err := http.Get(ts.URL + "/api/v1/campaigns/" + info.ID + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	mbody, _ := io.ReadAll(mresp.Body)
	mresp.Body.Close()
	if mresp.StatusCode != http.StatusOK || !strings.Contains(string(mbody), "campaign_shards_total") {
		t.Errorf("campaign metrics: code=%d body=%q", mresp.StatusCode, mbody)
	}
}
