package service_test

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/farm"
	"repro/internal/service"
)

// FuzzCampaignSpec: a campaign spec arrives as a submit body and again
// embedded in every lease grant, where the worker re-plans it. Every input
// either fails to decode, fails to plan, or plans a run with no repeated
// shard key whose spec survives a trip through a lease grant: the re-decoded
// spec plans the same fingerprint and the same shards. Nothing panics.
// `go test` runs the seeds in testdata/fuzz/FuzzCampaignSpec;
// `go test -fuzz=FuzzCampaignSpec ./internal/service` explores further.
func FuzzCampaignSpec(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"seed":1,"campaigns":"ab","quick":10,"packages":["com.heartwatch.wear"]}`,
		`{"seed":1,"fleet":"tablet"}`,
		`{"seed":1,"campaigns":"AX"}`,
		`{"packages":[]}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Decode the way the submit handler does.
		var spec service.CampaignSpec
		if err := json.NewDecoder(bytes.NewReader(data)).Decode(&spec); err != nil {
			return
		}
		plan, err := spec.Plan()
		if err != nil {
			return
		}
		shards := plan.Shards()
		for i, k := range shards {
			if slices.Contains(shards[:i], k) {
				t.Fatalf("spec %s plans shard %v twice", data, k)
			}
		}

		// Decode the way a worker reads its lease grant.
		wire, err := json.Marshal(service.LeaseGrant{Spec: spec})
		if err != nil {
			t.Fatalf("planned spec does not marshal: %v", err)
		}
		var grant service.LeaseGrant
		if err := json.Unmarshal(wire, &grant); err != nil {
			t.Fatalf("lease grant does not decode: %v\n%s", err, wire)
		}
		again, err := grant.Spec.Plan()
		if err != nil {
			t.Fatalf("re-decoded spec does not plan: %v\n%s", err, wire)
		}
		if again.Fingerprint() != plan.Fingerprint() {
			t.Fatalf("fingerprint %016x after the round trip, %016x before\n%s",
				again.Fingerprint(), plan.Fingerprint(), wire)
		}
		if !slices.Equal(again.Shards(), shards) {
			t.Fatalf("shards changed in the round trip:\n%v\n%v", again.Shards(), shards)
		}
	})
}

// FuzzWorkerEnvelopes: the two bodies a worker sends, a lease request and a
// result upload, arrive at the real handlers as arbitrary bytes. Every body
// ends in a 2xx or 4xx response, never a panic or a 5xx. The upload is
// posted against a live lease, so a body that decodes reaches the record
// checks (fingerprint, shard, key) and, when valid, completes the shard.
// `go test` runs the seeds; `go test -fuzz=FuzzWorkerEnvelopes
// ./internal/service` explores further.
func FuzzWorkerEnvelopes(f *testing.F) {
	// Triage off keeps the merge a valid upload triggers cheap.
	spec := tinySpec()
	spec.DisableTriage = true
	plan, err := spec.Plan()
	if err != nil {
		f.Fatal(err)
	}
	sr, err := plan.NewExecutor().ExecuteShard(0)
	if err != nil {
		f.Fatal(err)
	}
	record, err := farm.EncodeShardRecord(0, sr)
	if err != nil {
		f.Fatal(err)
	}
	fp := fmt.Sprintf("%016x", plan.Fingerprint())
	valid, err := json.Marshal(struct {
		Fingerprint string          `json:"fingerprint"`
		Record      json.RawMessage `json:"record"`
	}{fp, record})
	if err != nil {
		f.Fatal(err)
	}
	for _, seed := range []struct{ lease, result string }{
		{`{"worker":"w1"}`, string(valid)},
		{`{}`, `{"fingerprint":"` + fp + `","record":{}}`},
		{`{"worker":7}`, `{"fingerprint":"` + fp + `","record":"not a record"}`},
		{`null`, `{"fingerprint":"0000000000000000","record":null}`},
		{`not json`, `{}`},
		{``, ``},
	} {
		f.Add([]byte(seed.lease), []byte(seed.result))
	}

	// Retain 1 archives merged campaigns, so valid uploads do not pile up.
	coord, err := service.NewCoordinator(service.Options{Retain: 1})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { coord.Shutdown() })
	h := service.Handler(coord)
	post := func(t *testing.T, path string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("POST %s with %q: status %d, want 2xx or 4xx\n%s", path, body, rec.Code, rec.Body)
		}
		return rec
	}
	lease := func(t *testing.T) service.LeaseGrant {
		t.Helper()
		grant, err := coord.Lease("fuzz")
		if errors.Is(err, service.ErrNoWork) {
			if _, err := coord.Submit(spec); err != nil {
				t.Fatal(err)
			}
			grant, err = coord.Lease("fuzz")
		}
		if err != nil {
			t.Fatal(err)
		}
		return grant
	}

	f.Fuzz(func(t *testing.T, leaseBody, resultBody []byte) {
		if rec := post(t, "/api/v1/leases", leaseBody); rec.Code == http.StatusOK {
			var grant service.LeaseGrant
			if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
				t.Fatalf("lease grant does not decode: %v\n%s", err, rec.Body)
			}
			post(t, "/api/v1/leases/"+grant.LeaseID+"/release", nil)
		}
		grant := lease(t)
		post(t, "/api/v1/leases/"+grant.LeaseID+"/result", resultBody)
		// A refused upload has already re-queued the shard; release the
		// lease in case the body never reached the record checks.
		post(t, "/api/v1/leases/"+grant.LeaseID+"/release", nil)
	})
}

// FuzzArchivedInfo: an archived campaign's info snapshot
// (done/<id>.info.json) is read back when a coordinator starts on its data
// dir. Every input either makes the restore fail with an explicit error or
// restores a listing whose every entry is an archived campaign with an ID.
// Nothing panics. `go test -fuzz=FuzzArchivedInfo ./internal/service`
// explores beyond the seeds.
func FuzzArchivedInfo(f *testing.F) {
	for _, seed := range []string{
		`{"id":"c3-0123456789abcdef","spec":{"seed":1,"quick":10},"fingerprint":"0123456789abcdef","state":"complete","shards":4,"done":4,"intentsSent":96,"created":"2026-01-02T03:04:05Z"}`,
		`{"id":"c18446744073709551616-x","state":"running"}`,
		`{"id":""}`,
		`{"state":"archived"}`,
		`{"id":"c1-a","created":"not a time"}`,
		`[]`,
		`null`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		done := filepath.Join(dir, "done")
		if err := os.MkdirAll(done, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(done, "c1-fuzz.info.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		c, err := service.NewCoordinator(service.Options{DataDir: dir})
		if err != nil {
			return
		}
		defer c.Shutdown()
		for _, info := range c.Campaigns() {
			if info.ID == "" || info.State != service.CampaignArchived {
				t.Fatalf("archive info %q restored listing entry %+v", data, info)
			}
		}
	})
}
