package service_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"slices"
	"strings"
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

	post := func(t *testing.T, h http.Handler, path string, body []byte) *httptest.ResponseRecorder {
		t.Helper()
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, path, bytes.NewReader(body)))
		if rec.Code < 200 || rec.Code >= 500 || (rec.Code >= 300 && rec.Code < 400) {
			t.Fatalf("POST %s with %q: status %d, want 2xx or 4xx\n%s", path, body, rec.Code, rec.Body)
		}
		return rec
	}

	f.Fuzz(func(t *testing.T, leaseBody, resultBody []byte) {
		// One coordinator per input, in its own data dir, so valid uploads
		// do not pile up merged campaigns.
		coord := newCoordinator(t, service.Options{DataDir: t.TempDir()})
		if _, err := coord.Submit(spec); err != nil {
			t.Fatal(err)
		}
		h := service.Handler(coord)
		if rec := post(t, h, "/api/v1/leases", leaseBody); rec.Code == http.StatusOK {
			var grant service.LeaseGrant
			if err := json.Unmarshal(rec.Body.Bytes(), &grant); err != nil {
				t.Fatalf("lease grant does not decode: %v\n%s", err, rec.Body)
			}
			post(t, h, "/api/v1/leases/"+grant.LeaseID+"/release", nil)
		}
		grant, err := coord.Lease("fuzz")
		if err != nil {
			t.Fatal(err)
		}
		post(t, h, "/api/v1/leases/"+grant.LeaseID+"/result", resultBody)
		// A refused upload has already re-queued the shard; release the
		// lease in case the body never reached the record checks.
		post(t, h, "/api/v1/leases/"+grant.LeaseID+"/release", nil)
	})
}

// FuzzSpecSidecar: a coordinator starting on its data dir re-hosts every
// campaign from its <id>.spec.json sidecar. Next to one genuine campaign,
// the fuzzer writes one sidecar of its own under <stem>.spec.json. Every
// input either makes the restore fail with an error naming that file, or
// restores exactly one campaign per sidecar, each once, under its file's
// stem. Nothing panics. `go test -fuzz=FuzzSpecSidecar ./internal/service`
// explores beyond the seeds.
func FuzzSpecSidecar(f *testing.F) {
	genuine := f.TempDir()
	coord, err := service.NewCoordinator(service.Options{DataDir: genuine})
	if err != nil {
		f.Fatal(err)
	}
	info, err := coord.Submit(tinySpec())
	if err != nil {
		f.Fatal(err)
	}
	if err := coord.Shutdown(); err != nil {
		f.Fatal(err)
	}
	files, err := os.ReadDir(genuine)
	if err != nil {
		f.Fatal(err)
	}
	sidecar, err := os.ReadFile(filepath.Join(genuine, info.ID+".spec.json"))
	if err != nil {
		f.Fatal(err)
	}

	for _, seed := range []struct{ stem, data string }{
		{"c2-fuzz", `{"id":"c2-fuzz","spec":{"seed":1,"campaigns":"A","packages":["com.strava.wear"],"quick":10}}`},
		// A sidecar naming no campaign once restored one called "",
		// journaled in ".ckpt".
		{"", `{"id":"","spec":{"seed":1,"campaigns":"A","packages":["com.heartwatch.wear"],"quick":10}}`},
		// A second sidecar naming the genuine campaign once hosted it twice
		// on one journal.
		{"c2-dup", string(sidecar)},
		// The genuine campaign's sidecar, overwritten with another spec,
		// no longer matches its journal.
		{info.ID, `{"id":"` + info.ID + `","spec":{"seed":2,"quick":10}}`},
		{"c3-x", `{"id":"c3-x","spec":{"fleet":"tablet"}}`},
		{"c3-x", `{"id":"c3-x","created":"not a time"}`},
		{"c3-x", `null`},
		{"c3-x", `not json`},
		{"c3-x", ``},
	} {
		f.Add(seed.stem, []byte(seed.data))
	}

	f.Fuzz(func(t *testing.T, stem string, data []byte) {
		if strings.ContainsAny(stem, "/\x00") {
			return
		}
		dir := t.TempDir()
		for _, e := range files {
			body, err := os.ReadFile(filepath.Join(genuine, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, e.Name()), body, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		name := stem + ".spec.json"
		if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
			return // not a valid file name
		}
		c, err := service.NewCoordinator(service.Options{DataDir: dir})
		if err != nil {
			if !strings.Contains(err.Error(), name) {
				t.Fatalf("sidecar %q = %q: error %q does not name the file", name, data, err)
			}
			return
		}
		defer c.Shutdown()
		want := []string{info.ID, stem}
		if stem == info.ID {
			want = want[:1]
		}
		var got []string
		for _, ci := range c.Campaigns() {
			got = append(got, ci.ID)
		}
		slices.Sort(got)
		slices.Sort(want)
		if !slices.Equal(got, want) || slices.Contains(got, "") {
			t.Fatalf("sidecar %q = %q restored campaigns %q, want %q", name, data, got, want)
		}
	})
}
