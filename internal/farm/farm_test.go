package farm_test

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/report"
	"repro/internal/telemetry"
)

// testPackages is a small slice of the wear fleet covering crashy and quiet
// apps, enough for every campaign to produce work without full-study cost.
var testPackages = []string{"com.heartwatch.wear", "com.strava.wear", "com.whatsapp.wear"}

func testGen() core.GeneratorConfig { return experiments.QuickGen(10) }

// exportForCompare renders a study result as canonical JSON with the
// execution metadata (worker count, checkpoint path, resumed count) blanked:
// the determinism contract is about the scientific outputs — Table III,
// Fig 3a, campaign counts, triage buckets — not about how the run executed.
func exportForCompare(t *testing.T, sr *experiments.StudyResult) string {
	t.Helper()
	exp := report.ExportStudy(sr, 1)
	exp.Sharding = nil
	data, err := json.MarshalIndent(exp, "", " ")
	if err != nil {
		t.Fatalf("marshal export: %v", err)
	}
	return string(data)
}

func runStudy(t *testing.T, sharding core.Sharding) *experiments.StudyResult {
	t.Helper()
	sr, err := experiments.RunWearStudy(experiments.Options{
		Seed:     1,
		Gen:      testGen(),
		Packages: testPackages,
		Sharding: sharding,
	})
	if err != nil {
		t.Fatalf("study: %v", err)
	}
	return sr
}

func TestWorkerCountInvariance(t *testing.T) {
	serial := runStudy(t, core.Sharding{Workers: 1})
	parallel := runStudy(t, core.Sharding{Workers: 8})

	if serial.Sent == 0 {
		t.Fatal("study sent nothing; scale the generator up")
	}
	if got, want := exportForCompare(t, parallel), exportForCompare(t, serial); got != want {
		t.Errorf("workers=8 export differs from workers=1:\n--- workers=1 ---\n%s\n--- workers=8 ---\n%s", want, got)
	}
	if serial.Sharding == nil || serial.Sharding.Workers != 1 {
		t.Fatalf("serial sharding info = %+v", serial.Sharding)
	}
	if parallel.Sharding == nil || parallel.Sharding.Workers != 8 {
		t.Fatalf("parallel sharding info = %+v", parallel.Sharding)
	}
	wantShards := 4 * len(testPackages)
	if serial.Sharding.Shards != wantShards {
		t.Fatalf("shards = %d, want %d", serial.Sharding.Shards, wantShards)
	}
	if serial.Triage == nil {
		t.Fatal("farm run must carry a triage result")
	}
	if serial.Triage.Crashes > 0 && serial.Triage.Unique() == 0 {
		t.Fatal("crashes observed but no buckets")
	}
	if serial.Triage.Unique() > serial.Triage.Crashes {
		t.Fatal("more unique signatures than raw crashes")
	}
}

func TestResumeMatchesUninterrupted(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.ckpt")
	killed := filepath.Join(dir, "killed.ckpt")

	uninterrupted := runStudy(t, core.Sharding{Workers: 2, Checkpoint: full})
	want := exportForCompare(t, uninterrupted)

	// Simulate a SIGKILL after three shards: keep the header plus three
	// records from the completed journal and append a torn partial line.
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(string(data), "\n"), "\n")
	if len(lines) < 5 {
		t.Fatalf("journal too short to truncate: %d lines", len(lines))
	}
	const keep = 3
	torn := strings.Join(lines[:1+keep], "\n") + "\n" + `{"index":7,"key":{"camp`
	if err := os.WriteFile(killed, []byte(torn), 0o644); err != nil {
		t.Fatal(err)
	}

	resumed := runStudy(t, core.Sharding{Workers: 2, Checkpoint: killed, Resume: true})
	if got := exportForCompare(t, resumed); got != want {
		t.Errorf("resumed run differs from uninterrupted run:\n--- uninterrupted ---\n%s\n--- resumed ---\n%s", want, got)
	}
	if resumed.Sharding.Resumed != keep {
		t.Fatalf("resumed = %d shards, want %d", resumed.Sharding.Resumed, keep)
	}

	// The journal is now complete: resuming again replays every shard.
	replayed := runStudy(t, core.Sharding{Workers: 2, Checkpoint: killed, Resume: true})
	if got := exportForCompare(t, replayed); got != want {
		t.Error("full-journal replay differs from uninterrupted run")
	}
	if replayed.Sharding.Resumed != replayed.Sharding.Shards {
		t.Fatalf("replay resumed %d of %d shards", replayed.Sharding.Resumed, replayed.Sharding.Shards)
	}
}

func TestResumeRejectsForeignJournal(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "run.ckpt")
	if _, err := farm.Run(farm.Config{
		Seed:     1,
		Packages: testPackages[:1],
		Gen:      testGen(),
		Sharding: core.Sharding{Workers: 2, Checkpoint: ckpt},
	}); err != nil {
		t.Fatalf("seed run: %v", err)
	}
	// Same checkpoint, different seed: the plan fingerprint must not match.
	_, err := farm.Run(farm.Config{
		Seed:     2,
		Packages: testPackages[:1],
		Gen:      testGen(),
		Sharding: core.Sharding{Workers: 2, Checkpoint: ckpt, Resume: true},
	})
	if err == nil || !strings.Contains(err.Error(), "fingerprint") {
		t.Fatalf("err = %v, want fingerprint mismatch", err)
	}
}

func TestResumeWithoutJournalStartsFresh(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "never-written.ckpt")
	res, err := farm.Run(farm.Config{
		Seed:     1,
		Packages: testPackages[:1],
		Gen:      testGen(),
		Sharding: core.Sharding{Workers: 2, Checkpoint: ckpt, Resume: true},
	})
	if err != nil {
		t.Fatalf("resume against absent journal: %v", err)
	}
	if res.Resumed != 0 {
		t.Fatalf("resumed = %d, want 0", res.Resumed)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("fresh journal not created: %v", err)
	}
}

func TestUnknownPackageFails(t *testing.T) {
	_, err := farm.Run(farm.Config{
		Seed:     1,
		Packages: []string{"com.does.not.exist"},
		Gen:      testGen(),
		Sharding: core.Sharding{Workers: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "com.does.not.exist") {
		t.Fatalf("err = %v, want unknown-package failure", err)
	}
}

// TestUnknownPackagesListedSorted: every unmatched package name is
// reported, sorted, so the error reads the same on every run whatever the
// map iteration order.
func TestUnknownPackagesListedSorted(t *testing.T) {
	cases := []struct {
		name string
		pkgs []string
		want string
	}{
		{"one bad", []string{"a.bad"}, `["a.bad"]`},
		{"two bad", []string{"b.bad", "a.bad"}, `["a.bad" "b.bad"]`},
		{"bad among good", []string{"com.strava.wear", "z.bad", "a.bad", "com.heartwatch.wear"}, `["a.bad" "z.bad"]`},
		{"repeated bad", []string{"b.bad", "a.bad", "b.bad"}, `["a.bad" "b.bad"]`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			want := "farm: packages not in the wear fleet: " + tc.want
			for i := 0; i < 10; i++ {
				_, err := farm.NewPlan(farm.Config{Seed: 1, Packages: tc.pkgs})
				if err == nil || err.Error() != want {
					t.Fatalf("attempt %d: err = %v, want %s", i, err, want)
				}
			}
		})
	}
}

// TestRepeatedCampaignRejected: a campaign listed twice would plan two
// shards under one ShardKey and Merge would fold both into each result,
// multiplying that campaign's counts. NewPlan and Run refuse it, naming
// the letter.
func TestRepeatedCampaignRejected(t *testing.T) {
	for _, cs := range [][]core.Campaign{
		{core.CampaignA, core.CampaignA},
		{core.CampaignB, core.CampaignF, core.CampaignC, core.CampaignF},
	} {
		cfg := farm.Config{Seed: 1, Campaigns: cs, Packages: testPackages[:1], Gen: testGen(),
			Sharding: core.Sharding{Workers: 1}}
		want := "farm: campaign " + cs[len(cs)-1].Letter() + " listed twice"
		if _, err := farm.NewPlan(cfg); err == nil || err.Error() != want {
			t.Fatalf("NewPlan(%v): err = %v, want %s", cs, err, want)
		}
		if _, err := farm.Run(cfg); err == nil || err.Error() != want {
			t.Fatalf("Run(%v): err = %v, want %s", cs, err, want)
		}
	}
}

func TestFarmTelemetryAndProgress(t *testing.T) {
	reg := telemetry.NewRegistry()
	var calls int
	lastDone := 0
	res, err := farm.Run(farm.Config{
		Seed:      1,
		Campaigns: []core.Campaign{core.CampaignA},
		Packages:  testPackages,
		Gen:       testGen(),
		Sharding:  core.Sharding{Workers: 4},
		Telemetry: reg,
		Progress: func(done, total int, key farm.ShardKey, sentSoFar int) {
			calls++
			if done <= lastDone {
				t.Errorf("progress done went %d -> %d", lastDone, done)
			}
			lastDone = done
			if total != len(testPackages) {
				t.Errorf("total = %d, want %d", total, len(testPackages))
			}
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if calls != len(testPackages) {
		t.Fatalf("progress calls = %d, want %d", calls, len(testPackages))
	}
	snap := reg.Snapshot()
	if got := snap.Counters["farm_shards_done_total"]; got != uint64(len(testPackages)) {
		t.Fatalf("farm_shards_done_total = %d", got)
	}
	if got := snap.Counters["farm_intents_total"]; got != uint64(res.Sent) {
		t.Fatalf("farm_intents_total = %d, want %d", got, res.Sent)
	}
	if snap.Gauges["farm_workers"] != 4 {
		t.Fatalf("farm_workers = %v", snap.Gauges["farm_workers"])
	}
	if snap.Gauges["farm_shards_inflight"] != 0 {
		t.Fatalf("farm_shards_inflight = %v after completion", snap.Gauges["farm_shards_inflight"])
	}
}

// TestFlightRecorderAttachedToBuckets checks the crash-forensics contract:
// every triage bucket's exemplar carries a flight-record window — recent
// structured events linked by the shard's trace ID and ending at the
// failure verdict — and the window survives into the JSON export.
func TestFlightRecorderAttachedToBuckets(t *testing.T) {
	sr := runStudy(t, core.Sharding{Workers: 4})
	if sr.Triage == nil || sr.Triage.Crashes == 0 {
		t.Skip("no failures at this scale; nothing to attach")
	}
	for _, b := range sr.Triage.Buckets {
		if b.Exemplar == nil {
			t.Fatalf("bucket %016x has no exemplar", b.Hash)
		}
		if b.Exemplar.Trace == "" {
			t.Errorf("bucket %016x exemplar has no trace ID", b.Hash)
		}
		w := b.Exemplar.Flight
		if len(w) == 0 {
			t.Fatalf("bucket %016x exemplar has no flight window", b.Hash)
		}
		// The window ends at the failure: the final event is the dispatch
		// result of the failing injection, and the verdict event (exception
		// class or "anr") lands just before it, during delivery settling.
		last := w[len(w)-1]
		if last.Kind != telemetry.EventDispatch {
			t.Errorf("bucket %016x window ends with %s, want %s", b.Hash, last.Kind, telemetry.EventDispatch)
		}
		verdicts := 0
		for _, e := range w {
			if e.Kind == telemetry.EventVerdict {
				verdicts++
				if b.Kind == "anr" && e.Detail == "" {
					t.Errorf("ANR bucket %016x verdict has empty detail", b.Hash)
				}
			}
		}
		if verdicts == 0 {
			t.Errorf("bucket %016x window carries no verdict event", b.Hash)
		}
		for i, e := range w {
			if e.Trace != b.Exemplar.Trace {
				t.Errorf("bucket %016x event %d trace %q != exemplar trace %q", b.Hash, i, e.Trace, b.Exemplar.Trace)
			}
			if i > 0 && e.Seq <= w[i-1].Seq {
				t.Errorf("bucket %016x window seq not increasing at %d: %d after %d", b.Hash, i, e.Seq, w[i-1].Seq)
			}
		}
	}
	exp := report.ExportStudy(sr, 1)
	if exp.Triage == nil {
		t.Fatal("export dropped the triage section")
	}
	for _, be := range exp.Triage.Buckets {
		if len(be.Flight) == 0 || be.Trace == "" {
			t.Errorf("exported bucket %s lost its flight window (trace=%q, %d events)",
				be.Hash, be.Trace, len(be.Flight))
		}
	}
}

// TestFlightWindowsOnlyOnExemplarCandidates guards the forensics budget:
// a shard keeps a flight window only on records that can become their
// bucket's exemplar (at most two per bucket: the first record, and the
// first carrying an intent), while every merged exemplar still has one.
func TestFlightWindowsOnlyOnExemplarCandidates(t *testing.T) {
	p, err := farm.NewPlan(farm.Config{
		Seed:      1,
		Campaigns: []core.Campaign{core.CampaignA, core.CampaignB, core.CampaignC, core.CampaignD, core.CampaignF},
		Packages:  testPackages,
		Gen:       testGen(),
	})
	if err != nil {
		t.Fatal(err)
	}
	ex := p.NewExecutor()
	results := make([]*farm.ShardResult, len(p.Shards()))
	records, windowed := 0, 0
	windowedBuckets := make(map[uint64]bool)
	for i := range results {
		if results[i], err = ex.ExecuteShard(i); err != nil {
			t.Fatal(err)
		}
		perBucket := make(map[uint64]int)
		for _, c := range results[i].Crashes {
			records++
			if c.Flight == nil {
				continue
			}
			windowed++
			perBucket[c.Hash()]++
			windowedBuckets[c.Hash()] = true
		}
		for h, n := range perBucket {
			if n > 2 {
				t.Errorf("shard %s: bucket %016x keeps %d windows, want <= 2", results[i].Key, h, n)
			}
		}
	}
	if windowed == 0 || windowed == records {
		t.Fatalf("%d of %d records keep a window; want some, but not all", windowed, records)
	}

	res, err := p.Merge(results)
	if err != nil {
		t.Fatal(err)
	}
	for _, b := range res.Triage.Buckets {
		if len(b.Exemplar.Flight) > 0 {
			continue
		}
		// A fault verdict graded at campaign end settles outside any
		// delivery and never had a window to keep; any other record did.
		if !b.Exemplar.IsFault() || windowedBuckets[b.Hash] {
			t.Errorf("bucket %016x (%s %s) exemplar has no flight window", b.Hash, b.Kind, b.Class)
		}
	}
}

func TestStatusBoardTracksRun(t *testing.T) {
	board := farm.NewStatusBoard()
	res, err := farm.Run(farm.Config{
		Seed:      1,
		Campaigns: []core.Campaign{core.CampaignA},
		Packages:  testPackages,
		Gen:       testGen(),
		Sharding:  core.Sharding{Workers: 2},
		Status:    board,
	})
	if err != nil {
		t.Fatal(err)
	}
	s := board.Status()
	if s.Total != len(testPackages) || s.Done != len(testPackages) {
		t.Fatalf("status total=%d done=%d, want %d", s.Total, s.Done, len(testPackages))
	}
	if s.Pending != 0 || s.Running != 0 || s.Failed != 0 {
		t.Fatalf("finished run left pending=%d running=%d failed=%d", s.Pending, s.Running, s.Failed)
	}
	if s.Workers != 2 {
		t.Fatalf("workers = %d, want 2", s.Workers)
	}
	if s.IntentsTotal != res.Sent {
		t.Fatalf("intentsTotal = %d, want %d", s.IntentsTotal, res.Sent)
	}
	for _, sh := range s.Shards {
		if sh.State != farm.StateDone {
			t.Fatalf("shard %s state = %q", sh.Key, sh.State)
		}
		if sh.Source != farm.BootClone && sh.Source != farm.BootReuse {
			t.Fatalf("shard %s boot source = %q", sh.Key, sh.Source)
		}
		if sh.Sent == 0 {
			t.Errorf("shard %s reported zero intents", sh.Key)
		}
	}

	srv := httptest.NewServer(farm.StatusHandler(board))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != "application/json; charset=utf-8" {
		t.Fatalf("Content-Type = %q", ct)
	}
	var snap farm.StatusSnapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatal(err)
	}
	if snap.Done != len(testPackages) || len(snap.Shards) != len(testPackages) {
		t.Fatalf("served snapshot done=%d shards=%d", snap.Done, len(snap.Shards))
	}
}

// TestStatusHandlerCampaignFilter: /farm?campaign=<letter> narrows the
// board to one campaign's shards with recomputed tallies, and a letter
// outside the plan answers 404 with a JSON error body.
func TestStatusHandlerCampaignFilter(t *testing.T) {
	board := farm.NewStatusBoard()
	if _, err := farm.Run(farm.Config{
		Seed:      1,
		Campaigns: []core.Campaign{core.CampaignA, core.CampaignB},
		Packages:  testPackages,
		Gen:       testGen(),
		Sharding:  core.Sharding{Workers: 2},
		Status:    board,
	}); err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(farm.StatusHandler(board))
	defer srv.Close()

	get := func(query string) (*http.Response, []byte) {
		t.Helper()
		resp, err := http.Get(srv.URL + query)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	// Filtered view: only campaign B's shards, tallies recomputed.
	resp, body := get("?campaign=b")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("?campaign=b status = %d, body %s", resp.StatusCode, body)
	}
	var snap farm.StatusSnapshot
	if err := json.Unmarshal(body, &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Total != len(testPackages) || snap.Done != len(testPackages) {
		t.Fatalf("filtered total=%d done=%d, want %d", snap.Total, snap.Done, len(testPackages))
	}
	for _, sh := range snap.Shards {
		if sh.Key.Campaign.Letter() != "B" {
			t.Fatalf("filtered view leaked shard %s", sh.Key)
		}
	}

	// The per-letter views partition the board: their state counts and
	// intents sum to the unfiltered snapshot's.
	tally := func(s farm.StatusSnapshot) [7]int {
		return [7]int{s.Total, s.Pending, s.Running, s.Done, s.Resumed, s.Failed, s.IntentsTotal}
	}
	whole := board.Status()
	var sum [7]int
	for _, letter := range []string{"A", "B"} {
		part, ok := whole.FilterCampaign(letter)
		if !ok {
			t.Fatalf("campaign %s missing from the board", letter)
		}
		for i, v := range tally(part) {
			sum[i] += v
		}
	}
	if sum != tally(whole) {
		t.Fatalf("per-letter tallies sum to %v, board has %v (total, pending, running, done, resumed, failed, intents)", sum, tally(whole))
	}

	// A campaign outside the plan: 404 with a JSON error body.
	resp, body = get("?campaign=D")
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("?campaign=D status = %d, want 404", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "application/json") {
		t.Fatalf("404 Content-Type = %q, want JSON", ct)
	}
	var errBody map[string]string
	if err := json.Unmarshal(body, &errBody); err != nil || errBody["error"] == "" {
		t.Fatalf("404 body = %s (err %v), want {\"error\": ...}", body, err)
	}
}

func TestStatusBoardNilSafe(t *testing.T) {
	var board *farm.StatusBoard
	if s := board.Status(); s.Total != 0 {
		t.Fatalf("nil board status = %+v", s)
	}
	srv := httptest.NewServer(farm.StatusHandler(nil))
	defer srv.Close()
	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
}

func TestTriageMinimizedReproducers(t *testing.T) {
	res, err := farm.Run(farm.Config{
		Seed:     1,
		Packages: testPackages,
		Gen:      testGen(),
		Sharding: core.Sharding{Workers: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Triage == nil || res.Triage.Crashes == 0 {
		t.Skip("no crashes at this scale; nothing to minimize")
	}
	reproduced := 0
	for _, b := range res.Triage.Buckets {
		if !b.Reproduced {
			continue
		}
		reproduced++
		if b.Minimized == nil {
			t.Errorf("bucket %016x reproduced but has no minimized intent", b.Hash)
		}
		if b.Minimized != nil && b.Minimized.Component != b.Exemplar.Intent.Component {
			t.Errorf("bucket %016x minimization dropped the component", b.Hash)
		}
		if b.Trials == 0 {
			t.Errorf("bucket %016x reproduced with zero oracle trials", b.Hash)
		}
	}
	t.Logf("triage: %d raw, %d unique, %d reproduced+minimized",
		res.Triage.Crashes, res.Triage.Unique(), reproduced)
}
