package farm_test

import (
	"bytes"
	"testing"

	"repro/internal/core"
	"repro/internal/farm"
)

// TestSubsetPlanRecordsMatch pins the sharded twin of the aging plan's
// package-chain relation (property 2 of the determinism contract: a shard's
// outcome depends on its key and the plan seed alone). A shard plan over
// three of six packages gives every shard it shares with the six-package
// plan the record the larger plan gives it, byte for byte, although each
// plan runs its shards in order on one executor whose hot device and fleet
// cache the other packages' shards never touched.
func TestSubsetPlanRecordsMatch(t *testing.T) {
	six := []string{
		"com.google.android.apps.fitness", "com.motorola.omni", "com.strava.wear",
		"com.heartwatch.wear", "com.google.android.deskclock", "com.whatsapp.wear",
	}
	three := []string{six[1], six[3], six[5]}
	campaigns := []core.Campaign{core.CampaignA, core.CampaignF}
	run := func(pkgs []string) map[farm.ShardKey]*farm.ShardResult {
		t.Helper()
		plan, err := farm.NewPlan(farm.Config{Seed: 1, Campaigns: campaigns, Packages: pkgs, Gen: testGen()})
		if err != nil {
			t.Fatal(err)
		}
		exec := plan.NewExecutor()
		out := make(map[farm.ShardKey]*farm.ShardResult)
		for i, key := range plan.Shards() {
			sr, err := exec.ExecuteShard(i)
			if err != nil {
				t.Fatalf("%v: %v", key, err)
			}
			out[key] = sr
		}
		return out
	}
	full, subset := run(six), run(three)
	if len(full) != 2*len(six) || len(subset) != 2*len(three) {
		t.Fatalf("plans ran %d and %d shards, want %d and %d", len(full), len(subset), 2*len(six), 2*len(three))
	}
	for key, sr := range subset {
		want, ok := full[key]
		if !ok {
			t.Fatalf("%v: not in the six-package plan", key)
		}
		a, err := farm.EncodeShardRecord(0, want)
		if err != nil {
			t.Fatal(err)
		}
		b, err := farm.EncodeShardRecord(0, sr)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(a, b) {
			i := 0
			for i < len(a) && i < len(b) && a[i] == b[i] {
				i++
			}
			at := max(i-60, 0)
			t.Errorf("%v: the three-package plan's record differs from the six-package plan's at byte %d:\n six:   …%.200s\n three: …%.200s",
				key, i, a[at:], b[at:])
		}
	}
}
