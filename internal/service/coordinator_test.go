package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"testing"
	"time"

	"repro/internal/farm"
)

// executeLease runs a granted shard the way a worker does and returns the
// upload's fingerprint and record.
func executeLease(t *testing.T, g LeaseGrant) (string, []byte) {
	t.Helper()
	plan, err := g.Spec.Plan()
	if err != nil {
		t.Fatal(err)
	}
	sr, err := plan.NewExecutor().ExecuteShard(g.Shard)
	if err != nil {
		t.Fatal(err)
	}
	record, err := farm.EncodeShardRecord(g.Shard, sr)
	if err != nil {
		t.Fatal(err)
	}
	return fmt.Sprintf("%016x", plan.Fingerprint()), record
}

// TestFailedAppendRequeuesShard: when the journal append of the last
// upload fails, Complete reports the error and the shard goes back to the
// queue; the campaign keeps running and Export answers ErrNotComplete
// instead of waiting for a merge that was never started.
func TestFailedAppendRequeuesShard(t *testing.T) {
	c, err := NewCoordinator(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	info, err := c.Submit(CampaignSpec{Seed: 1, Campaigns: "A", Packages: []string{"com.heartwatch.wear"}, Quick: 10})
	if err != nil {
		t.Fatal(err)
	}
	g, err := c.Lease("w")
	if err != nil {
		t.Fatal(err)
	}
	fp, record := executeLease(t, g)
	c.mu.Lock()
	c.campaigns[info.ID].journal.Close()
	c.mu.Unlock()

	if err := c.Complete(g.LeaseID, fp, record); err == nil {
		t.Fatal("Complete accepted an upload its journal could not record")
	}
	got, err := c.Campaign(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if got.State != CampaignRunning || got.Done != 0 || got.Pending != 1 {
		t.Fatalf("after the failed append: state %s, done %d, pending %d; want running, 0, 1", got.State, got.Done, got.Pending)
	}
	again, err := c.Lease("w2")
	if err != nil {
		t.Fatalf("shard not leasable again: %v", err)
	}
	if again.Shard != g.Shard {
		t.Fatalf("re-leased shard %d, want %d", again.Shard, g.Shard)
	}
	exported := make(chan error, 1)
	go func() {
		_, err := c.Export(info.ID)
		exported <- err
	}()
	select {
	case err := <-exported:
		if !errors.Is(err, ErrNotComplete) {
			t.Fatalf("Export = %v, want ErrNotComplete", err)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("Export blocked on a merge that never started")
	}
}

// TestFinalizeDropsShardResults: once a campaign has merged, its board no
// longer holds the shard results, and Status still serves every row.
func TestFinalizeDropsShardResults(t *testing.T) {
	c, err := NewCoordinator(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	info, err := c.Submit(CampaignSpec{Seed: 1, Campaigns: "A", Packages: []string{"com.heartwatch.wear", "com.strava.wear"}, Quick: 10})
	if err != nil {
		t.Fatal(err)
	}
	for range info.Shards {
		g, err := c.Lease("w")
		if err != nil {
			t.Fatal(err)
		}
		fp, record := executeLease(t, g)
		if err := c.Complete(g.LeaseID, fp, record); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := c.Export(info.ID); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	camp := c.campaigns[info.ID]
	c.mu.Unlock()
	for idx, sr := range camp.board.TakeResults() {
		if sr != nil {
			t.Fatalf("merged campaign still holds shard %d's result", idx)
		}
	}
	snap, err := c.Status(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap.Shards) != info.Shards || snap.Done != info.Shards {
		t.Fatalf("status serves %d rows, %d done; want %d", len(snap.Shards), snap.Done, info.Shards)
	}
	for _, row := range snap.Shards {
		if row.State != farm.StateDone || row.Source != "w" || row.Sent == 0 {
			t.Fatalf("row %s after export: %+v", row.Key, row)
		}
	}
}

// TestOversizedBodyAnswers413: a POST body over the coordinator's bound is
// refused with 413 and an explicit error before the coordinator acts on
// it, so the lease of an oversized upload stays live and the identical
// upload succeeds once it fits. Submit and lease bodies share the bound.
func TestOversizedBodyAnswers413(t *testing.T) {
	c, err := NewCoordinator(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	h := Handler(c)
	post := func(path string, body []byte, want int) {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code != want {
			t.Fatalf("POST %s (%d bytes, bound %d): status %d, want %d\n%s", path, len(body), c.maxBody, rec.Code, want, rec.Body)
		}
		if want == http.StatusRequestEntityTooLarge && !strings.Contains(rec.Body.String(), "exceeds") {
			t.Fatalf("POST %s: 413 body %s does not name the bound", path, rec.Body)
		}
	}

	spec, err := json.Marshal(CampaignSpec{Seed: 1, Campaigns: "A", Packages: []string{"com.heartwatch.wear"}, Quick: 10})
	if err != nil {
		t.Fatal(err)
	}
	c.maxBody = int64(len(spec)) - 1
	post("/api/v1/campaigns", spec, http.StatusRequestEntityTooLarge)
	c.maxBody = maxBodyBytes
	post("/api/v1/campaigns", spec, http.StatusCreated)

	leaseBody := []byte(`{"worker":"w"}`)
	c.maxBody = int64(len(leaseBody)) - 1
	post("/api/v1/leases", leaseBody, http.StatusRequestEntityTooLarge)
	c.maxBody = maxBodyBytes

	g, err := c.Lease("w")
	if err != nil {
		t.Fatal(err)
	}
	fp, record := executeLease(t, g)
	upload, err := json.Marshal(resultUpload{Fingerprint: fp, Record: record})
	if err != nil {
		t.Fatal(err)
	}
	path := "/api/v1/leases/" + g.LeaseID + "/result"
	c.maxBody = int64(len(upload)) - 1
	post(path, upload, http.StatusRequestEntityTooLarge)
	c.mu.Lock()
	live := c.leases[g.LeaseID] != nil
	c.mu.Unlock()
	if !live {
		t.Fatal("an oversized upload dropped its lease")
	}
	c.maxBody = int64(len(upload))
	post(path, upload, http.StatusNoContent)
}

// TestDecodeBodyAllocs: a result upload whose Content-Length is declared
// is read into one buffer of that size and decoded from it, so a 1 MiB
// upload allocates at most 2.5x its size (the buffer and the record's
// copy); a body of unknown length still decodes, and a body over the
// bound still answers 413 whether or not its length is declared.
func TestDecodeBodyAllocs(t *testing.T) {
	record := append(append([]byte(`{"pad":"`), bytes.Repeat([]byte("x"), 1<<20)...), `"}`...)
	upload, err := json.Marshal(resultUpload{Fingerprint: "fp", Record: record})
	if err != nil {
		t.Fatal(err)
	}
	c := &Coordinator{maxBody: maxBodyBytes}
	decode := func(declared bool) (resultUpload, *httptest.ResponseRecorder) {
		t.Helper()
		req := httptest.NewRequest(http.MethodPost, "/api/v1/leases/l/result", bytes.NewReader(upload))
		if !declared {
			req.ContentLength = -1
		}
		var up resultUpload
		rec := httptest.NewRecorder()
		c.decodeBody(rec, req, "result upload", &up)
		return up, rec
	}

	for _, declared := range []bool{true, false} {
		up, rec := decode(declared)
		if rec.Code != http.StatusOK || up.Fingerprint != "fp" || !bytes.Equal(up.Record, record) {
			t.Fatalf("declared=%v: status %d, fingerprint %q, record of %d bytes (want %d)",
				declared, rec.Code, up.Fingerprint, len(up.Record), len(record))
		}
	}

	// The least of a few runs, so a runtime allocation that lands inside
	// the window does not count.
	least := uint64(math.MaxUint64)
	var ms runtime.MemStats
	for range 5 {
		req := httptest.NewRequest(http.MethodPost, "/api/v1/leases/l/result", bytes.NewReader(upload))
		rec := httptest.NewRecorder()
		var up resultUpload
		runtime.ReadMemStats(&ms)
		before := ms.TotalAlloc
		c.decodeBody(rec, req, "result upload", &up)
		runtime.ReadMemStats(&ms)
		least = min(least, ms.TotalAlloc-before)
	}
	ratio := float64(least) / float64(len(upload))
	if ratio > 2.5 {
		t.Fatalf("decoding a %d-byte upload allocates %d bytes (%.2fx), budget 2.5x", len(upload), least, ratio)
	}
	t.Logf("decoding a %d-byte upload allocates %.2fx its size", len(upload), ratio)

	c.maxBody = int64(len(upload)) - 1
	for _, declared := range []bool{true, false} {
		if _, rec := decode(declared); rec.Code != http.StatusRequestEntityTooLarge {
			t.Fatalf("declared=%v: a body over the bound answers %d, want 413", declared, rec.Code)
		}
	}
}

// TestCrashCounterCountsFoldedRecords: campaign_crashes_total counts the
// raw failure records each folded upload stands for, so it ends equal to
// the merged export's raw crash count rather than the shipped record count.
func TestCrashCounterCountsFoldedRecords(t *testing.T) {
	c, err := NewCoordinator(Options{DataDir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Shutdown()
	info, err := c.Submit(CampaignSpec{Seed: 1, Campaigns: "AB", Packages: []string{"com.heartwatch.wear", "com.strava.wear"}, Quick: 10})
	if err != nil {
		t.Fatal(err)
	}
	shipped := 0
	for range info.Shards {
		g, err := c.Lease("w")
		if err != nil {
			t.Fatal(err)
		}
		fp, record := executeLease(t, g)
		_, sr, err := farm.DecodeShardRecord(record)
		if err != nil {
			t.Fatal(err)
		}
		shipped += len(sr.Crashes)
		if err := c.Complete(g.LeaseID, fp, record); err != nil {
			t.Fatal(err)
		}
	}
	data, err := c.Export(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	var exp struct {
		Triage struct {
			RawCrashes int `json:"rawCrashes"`
		} `json:"triage"`
	}
	if err := json.Unmarshal(data, &exp); err != nil {
		t.Fatal(err)
	}
	reg, err := c.CampaignTelemetry(info.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := reg.Snapshot().Counters["campaign_crashes_total"]
	if got != uint64(exp.Triage.RawCrashes) || shipped >= exp.Triage.RawCrashes {
		t.Fatalf("campaign_crashes_total = %d, export raw crashes %d, shipped records %d; want the counter equal to the export and the records folded",
			got, exp.Triage.RawCrashes, shipped)
	}
}

// TestUndecodableRecordRequeuesShard: an upload whose record does not
// decode (garbage, or a crash with a negative fold weight) answers
// ErrBadRecord and voids its lease, so a second worker is granted the
// shard at once instead of after the lease TTL.
func TestUndecodableRecordRequeuesShard(t *testing.T) {
	for _, tc := range []struct {
		name   string
		record func(t *testing.T, g LeaseGrant) []byte
	}{
		{"garbage", func(*testing.T, LeaseGrant) []byte { return []byte("not a record") }},
		{"negative repeats", func(t *testing.T, g LeaseGrant) []byte {
			_, record := executeLease(t, g)
			var fields map[string]json.RawMessage
			if err := json.Unmarshal(record, &fields); err != nil {
				t.Fatal(err)
			}
			fields["crashes"] = json.RawMessage(`[{"process":"com.heartwatch.wear","repeats":-1}]`)
			out, err := json.Marshal(fields)
			if err != nil {
				t.Fatal(err)
			}
			return out
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c, err := NewCoordinator(Options{DataDir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			defer c.Shutdown()
			if _, err := c.Submit(CampaignSpec{Seed: 1, Campaigns: "A", Packages: []string{"com.heartwatch.wear"}, Quick: 10}); err != nil {
				t.Fatal(err)
			}
			g, err := c.Lease("w1")
			if err != nil {
				t.Fatal(err)
			}
			if err := c.Complete(g.LeaseID, g.Fingerprint, tc.record(t, g)); !errors.Is(err, ErrBadRecord) {
				t.Fatalf("Complete = %v, want ErrBadRecord", err)
			}
			again, err := c.Lease("w2")
			if err != nil {
				t.Fatalf("shard not leasable after the refused upload: %v", err)
			}
			if again.Shard != g.Shard {
				t.Fatalf("re-leased shard %d, want %d", again.Shard, g.Shard)
			}
		})
	}
}

// TestProtocolErrorsRoundTrip: every sentinel in the status table, bare or
// wrapped the way the coordinator wraps it, crosses the wire through
// writeServiceError and comes back from apiError as the same sentinel,
// including the two that share 409.
func TestProtocolErrorsRoundTrip(t *testing.T) {
	for _, e := range protocolErrors {
		for _, sent := range []error{e.err, fmt.Errorf("%w: c1-0000abcd", e.err)} {
			rec := httptest.NewRecorder()
			writeServiceError(rec, sent)
			if rec.Code != e.status {
				t.Errorf("%v: status %d, want %d", sent, rec.Code, e.status)
			}
			got := apiError(rec.Code, rec.Body.Bytes())
			if !errors.Is(got, e.err) {
				t.Errorf("%v: client reads %v, want %v", sent, got, e.err)
			}
			// The sentinel's text is said once, not once more around the
			// coordinator's message that already begins with it.
			if n := strings.Count(got.Error(), e.err.Error()); n != 1 {
				t.Errorf("%v: client error %q says %q %d times", sent, got, e.err, n)
			}
			if retry := rec.Header().Get("Retry-After"); (retry != "") != (e.status == http.StatusTooManyRequests) {
				t.Errorf("%v: Retry-After %q on %d", sent, retry, rec.Code)
			}
		}
	}
}
