package service_test

import (
	"bytes"
	"encoding/json"
	"slices"
	"testing"

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
