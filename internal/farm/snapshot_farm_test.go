package farm_test

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/telemetry"
)

// TestSnapshotMatchesFreshBootMerge is the executor's acceptance gate: the
// persistent executor (snapshot clones plus hot-device reuse) must produce
// a merged study byte-identical to the fresh-boot oracle's for any worker
// count. The oracle's serial run is the reference.
func TestSnapshotMatchesFreshBootMerge(t *testing.T) {
	off := farm.UseFreshBoot(t)
	want := exportForCompare(t, runStudy(t, core.Sharding{Workers: 1}))
	freshParallel := exportForCompare(t, runStudy(t, core.Sharding{Workers: 4}))
	off()
	if freshParallel != want {
		t.Error("fresh-boot workers=4 export differs from fresh-boot serial run")
	}
	for _, workers := range []int{1, 4, 8} {
		if got := exportForCompare(t, runStudy(t, core.Sharding{Workers: workers})); got != want {
			t.Errorf("workers=%d export differs from fresh-boot serial run:\n--- fresh serial ---\n%s\n--- workers=%d ---\n%s",
				workers, want, workers, got)
		}
	}
}

// tearJournal copies the header plus the first keep records of the journal
// at src to dst and appends a torn partial record, the state a SIGKILL
// mid-append leaves behind.
func tearJournal(t *testing.T, src, dst string, keep int) {
	t.Helper()
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < keep+2 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	torn := strings.Join(lines[:1+keep], "\n") + "\n" + `{"index":5,"key":{"camp`
	if err := os.WriteFile(dst, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestCheckpointCrossSnapshotModes pins that the boot path stays out of the
// checkpoint fingerprint: a torn journal written by the fresh-boot oracle
// resumes under the executor, and a torn journal the executor extended
// resumes under the oracle, both with output identical to an uninterrupted
// run.
func TestCheckpointCrossSnapshotModes(t *testing.T) {
	dir := t.TempDir()
	freshJournal := filepath.Join(dir, "fresh.ckpt")
	killed := filepath.Join(dir, "killed.ckpt")
	killedAgain := filepath.Join(dir, "killed-again.ckpt")

	off := farm.UseFreshBoot(t)
	want := exportForCompare(t, runStudy(t, core.Sharding{Workers: 2, Checkpoint: freshJournal}))
	off()

	// Oracle journal torn after three shards, resumed by the executor.
	const keep = 3
	tearJournal(t, freshJournal, killed, keep)
	resumed := runStudy(t, core.Sharding{Workers: 2, Checkpoint: killed, Resume: true})
	if got := exportForCompare(t, resumed); got != want {
		t.Errorf("executor resume of a fresh-boot journal differs:\n--- fresh-boot full ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if resumed.Resumed != keep {
		t.Fatalf("resumed = %d shards, want %d", resumed.Resumed, keep)
	}

	// The journal now mixes oracle and executor records; torn after six, it
	// resumes under the oracle.
	const keepAgain = 6
	tearJournal(t, killed, killedAgain, keepAgain)
	defer farm.UseFreshBoot(t)()
	again := runStudy(t, core.Sharding{Workers: 2, Checkpoint: killedAgain, Resume: true})
	if got := exportForCompare(t, again); got != want {
		t.Error("fresh-boot resume of an executor-extended journal differs")
	}
	if again.Resumed != keepAgain {
		t.Fatalf("oracle resumed = %d shards, want %d", again.Resumed, keepAgain)
	}

	// And the completed executor journal replays fully under the oracle.
	replayed := runStudy(t, core.Sharding{Workers: 2, Checkpoint: killed, Resume: true})
	if got := exportForCompare(t, replayed); got != want {
		t.Error("fresh-boot replay of an executor-completed journal differs")
	}
	if replayed.Resumed != replayed.Shards {
		t.Fatalf("replay resumed %d of %d shards", replayed.Resumed, replayed.Shards)
	}
}

// TestSnapshotTelemetry verifies the farm boot metrics. Under the
// executor every shard records one queue wait and comes up either by
// hot-device reuse (one reset latency) or by a fallback clone (one clone
// latency) — the two must account for every shard. Under the fresh-boot
// oracle none of the boot metrics are recorded.
func TestSnapshotTelemetry(t *testing.T) {
	run := func() telemetry.Snapshot {
		reg := telemetry.NewRegistry()
		res, err := farm.Run(farm.Config{
			Seed:      1,
			Packages:  testPackages,
			Gen:       testGen(),
			Sharding:  core.Sharding{Workers: 4},
			Telemetry: reg,
		})
		if err != nil {
			t.Fatal(err)
		}
		if res.Shards != 4*len(testPackages) {
			t.Fatalf("shards = %d, want %d", res.Shards, 4*len(testPackages))
		}
		return reg.Snapshot()
	}
	shards := uint64(4 * len(testPackages))

	snap := run()
	reuses := snap.Counters["farm_persist_reuses_total"]
	retires := snap.Counters["farm_persist_retires_total"]
	fallbacks := snap.Counters["farm_persist_fallbacks_total"]
	if reuses+fallbacks != shards {
		t.Fatalf("persist reuses(%d)+fallbacks(%d) = %d, want %d (every shard reuses or clones)",
			reuses, fallbacks, reuses+fallbacks, shards)
	}
	if reuses == 0 {
		t.Fatal("persistent run recorded zero hot-device reuses")
	}
	if got := snap.Histograms["farm_clone_seconds"].Count; got != fallbacks {
		t.Fatalf("farm_clone_seconds count = %d, want %d (one per fallback clone)", got, fallbacks)
	}
	if got := snap.Histograms["farm_reset_seconds"].Count; got != reuses+retires {
		t.Fatalf("farm_reset_seconds count = %d, want %d (one per reset attempt)", got, reuses+retires)
	}
	if got := snap.Histograms["farm_shard_queue_wait_seconds"].Count; got != shards {
		t.Fatalf("farm_shard_queue_wait_seconds count = %d, want %d", got, shards)
	}

	defer farm.UseFreshBoot(t)()
	fresh := run()
	if got := fresh.Histograms["farm_clone_seconds"].Count; got != 0 {
		t.Fatalf("fresh-boot run recorded %d clone latencies", got)
	}
	if n := fresh.Counters["farm_persist_reuses_total"] + fresh.Counters["farm_persist_fallbacks_total"]; n != 0 {
		t.Fatalf("fresh-boot run recorded %d persist outcomes", n)
	}
}

// TestRebootManifestsOnClonedShard is the BootCount regression test for the
// FIC reboot-manifestation path: the full-scale campaign A run against
// com.motorola.omni drives the paper's sensor-service escalation to a
// device reboot. A cloned shard device must report the same reboot and the
// same BootCount (template boot + its own reboot) as the fresh-boot oracle.
func TestRebootManifestsOnClonedShard(t *testing.T) {
	run := func(fresh bool) *farm.Result {
		if fresh {
			defer farm.UseFreshBoot(t)()
		}
		res, err := farm.Run(farm.Config{
			Seed:      1,
			Packages:  []string{"com.motorola.omni"},
			Campaigns: []core.Campaign{core.CampaignA},
			// Zero Gen = full paper scale; the reboot needs the full action
			// matrix to accumulate three sensor-listener ANRs.
			Gen:      core.GeneratorConfig{},
			Sharding: core.Sharding{Workers: 1},
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}

	snapRes, freshRes := run(false), run(true)
	for name, res := range map[string]*farm.Result{"snapshot": snapRes, "fresh-boot": freshRes} {
		cr := res.Campaigns[0]
		if len(cr.Report.RebootTimes) != 1 {
			t.Fatalf("%s: reboots = %d, want 1 (sensor-service escalation)", name, len(cr.Report.RebootTimes))
		}
		sum := cr.Summaries[0]
		if sum.Reboots != 1 {
			t.Fatalf("%s: summary reboots = %d, want 1", name, sum.Reboots)
		}
		if sum.BootCount != 2 {
			t.Fatalf("%s: shard BootCount = %d, want 2 (template boot + campaign reboot)", name, sum.BootCount)
		}
	}
	if !reflect.DeepEqual(snapRes.Campaigns[0].Summaries, freshRes.Campaigns[0].Summaries) {
		t.Errorf("shard summaries diverge:\nsnapshot:   %+v\nfresh-boot: %+v",
			snapRes.Campaigns[0].Summaries, freshRes.Campaigns[0].Summaries)
	}
	snapJSON, _ := json.Marshal(snapRes.Campaigns[0].Report)
	freshJSON, _ := json.Marshal(freshRes.Campaigns[0].Report)
	if string(snapJSON) != string(freshJSON) {
		t.Errorf("campaign reports diverge:\nsnapshot:   %s\nfresh-boot: %s", snapJSON, freshJSON)
	}
}
