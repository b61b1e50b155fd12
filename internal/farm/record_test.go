package farm

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// encoding/json is the record encoder's oracle: EncodeShardRecord(idx, sr)
// must give json.Marshal(recordOf(idx, sr))'s bytes, or both must fail.

// recordOf builds the journal record of a shard result, the value whose
// json.Marshal bytes are the journal line and the upload body.
func recordOf(idx int, sr *ShardResult) journalRecord {
	return journalRecord{
		Index:     idx,
		Key:       sr.Key,
		Seed:      sr.Seed,
		Sent:      sr.Sent,
		BootCount: sr.BootCount,
		Summary:   sr.Summary,
		Report:    exportReport(sr.Report),
		Crashes:   exportCrashes(sr.Crashes),
	}
}

// exportReport flattens r with components in deterministic order.
func exportReport(r *analysis.Report) reportJSON {
	out := reportJSON{
		RebootTimes:       r.RebootTimes,
		CoreServiceDeaths: r.CoreServiceDeaths,
		CrashEvents:       r.CrashEvents,
		ANREvents:         r.ANREvents,
		SecurityEvents:    r.SecurityEvents,
		Entries:           r.Entries,
	}
	for _, cn := range r.ComponentNames() {
		cr := r.Components[cn]
		out.Components = append(out.Components, componentJSON{
			Package:        cn.Package,
			Class:          cn.Class,
			Type:           cr.Type,
			Deliveries:     cr.Deliveries,
			Security:       cr.Security,
			ANRs:           cr.ANRs,
			RebootInvolved: cr.RebootInvolved,
			Rejected:       cr.Rejected,
			Caught:         cr.Caught,
			CrashRoots:     cr.CrashRoots,
			ANRClasses:     cr.ANRClasses,
		})
	}
	return out
}

func exportIntent(in *intent.Intent) *intentJSON {
	if in == nil {
		return nil
	}
	out := &intentJSON{
		Action:     in.Action,
		Data:       in.Data,
		Categories: in.Categories,
		Type:       in.Type,
		Component:  in.Component,
		Flags:      in.Flags,
	}
	for i := range in.Extras.Len() {
		k, v := in.Extras.At(i)
		out.Extras = append(out.Extras, extraJSON{Key: k, Value: v})
	}
	return out
}

func exportCrashes(crashes []*triage.Crash) []crashJSON {
	out := make([]crashJSON, 0, len(crashes))
	for _, c := range crashes {
		out = append(out, crashJSON{
			Kind:      c.Kind,
			Process:   c.Process,
			Component: c.Component,
			Classes:   c.Classes,
			Frames:    c.Frames,
			Fault:     c.Fault,
			Intent:    exportIntent(c.Intent),
			Trace:     c.Trace,
			Flight:    c.Flight,
			Repeats:   c.Repeats,
		})
	}
	return out
}

// checkRecordOracle holds EncodeShardRecord to encoding/json on one record.
func checkRecordOracle(t *testing.T, what string, idx int, sr *ShardResult) {
	t.Helper()
	got, gotErr := EncodeShardRecord(idx, sr)
	want, wantErr := json.Marshal(recordOf(idx, sr))
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, encoding/json's %v", what, gotErr, wantErr)
	case gotErr != nil:
		if got != nil {
			t.Fatalf("%s: %d bytes returned with error %v", what, len(got), gotErr)
		}
	case !bytes.Equal(got, want):
		n := 0
		for n < len(got) && n < len(want) && got[n] == want[n] {
			n++
		}
		t.Fatalf("%s: differs from encoding/json at byte %d:\n got  …%s\n want …%s",
			what, n, got[max(0, n-60):min(len(got), n+60)], want[max(0, n-60):min(len(want), n+60)])
	}
}

// recordTestConfig is a small checkpointable plan whose records carry
// crash and fault records with intents, extras and flight windows, and
// every component map. No shard of it reboots; the pokes add reboots.
func recordTestConfig(t *testing.T) Config {
	return Config{
		Seed:      1,
		Campaigns: []core.Campaign{core.CampaignA, core.CampaignB, core.CampaignC, core.CampaignD, core.CampaignF},
		Packages:  []string{"com.heartwatch.wear", "com.sleepcycle.wear", "com.spotify.wear"},
		Gen:       core.GeneratorConfig{ActionStride: 10, SchemeStride: 5, RandomVariants: 1, ExtrasVariants: 1},
		Sharding:  core.Sharding{Workers: 2, Checkpoint: filepath.Join(t.TempDir(), "run.ckpt")},
	}
}

// executeAll runs every shard of cfg's plan on one executor, in plan order.
func executeAll(t *testing.T, cfg Config) []*ShardResult {
	t.Helper()
	p, err := NewPlan(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ex := p.NewExecutor()
	out := make([]*ShardResult, len(p.Shards()))
	for idx := range out {
		if out[idx], err = ex.ExecuteShard(idx); err != nil {
			t.Fatal(err)
		}
	}
	return out
}

// TestEncodeShardRecordMatchesEncodingJSON holds the encoder to
// encoding/json on every record of a real checkpointed run, live and as
// the journal decodes it, and on records poked with what JSON escapes,
// formats specially or refuses. The journal lines the run wrote are the
// oracle's bytes too.
func TestEncodeShardRecordMatchesEncodingJSON(t *testing.T) {
	cfg := recordTestConfig(t)
	if _, err := Run(cfg); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(cfg.Sharding.Checkpoint)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")[1:]
	live := executeAll(t, cfg)
	if len(lines) != len(live) {
		t.Fatalf("journal holds %d records, plan has %d shards", len(lines), len(live))
	}
	var events, extras int
	for _, line := range lines {
		idx, decoded, err := DecodeShardRecord([]byte(line))
		if err != nil {
			t.Fatal(err)
		}
		checkRecordOracle(t, "decoded "+decoded.Key.String(), idx, decoded)
		sr := live[idx]
		checkRecordOracle(t, sr.Key.String(), idx, sr)
		if want, err := json.Marshal(recordOf(idx, sr)); err != nil || string(want) != line {
			t.Fatalf("%s: journal line is not encoding/json's bytes (err %v)", sr.Key, err)
		}
		for _, c := range sr.Crashes {
			events += len(c.Flight)
			if c.Intent != nil {
				extras += c.Intent.Extras.Len()
			}
		}
	}
	if events == 0 || extras == 0 {
		t.Fatalf("records carry %d flight events and %d extras; want both", events, extras)
	}

	// The poked records start from one with crash intents and extras.
	base := -1
	for idx, sr := range live {
		if len(sr.Crashes) > 0 && sr.Crashes[0].Intent != nil && sr.Crashes[0].Intent.Extras.Len() > 0 {
			base = idx
		}
	}
	if base < 0 {
		t.Fatal("no record carries a crash intent with extras")
	}
	record, err := EncodeShardRecord(base, live[base])
	if err != nil {
		t.Fatal(err)
	}
	zone := time.FixedZone("IST", 5*3600+30*60)
	hostile := "<a href=\"x\">&amp;</a>\u2028\u2029 bad \xff\xfe \xc3 \x00\x1f\t"
	for _, tc := range []struct {
		name string
		poke func(sr *ShardResult)
	}{
		{"as run", func(*ShardResult) {}},
		{"hostile strings", func(sr *ShardResult) {
			sr.Key.Package = hostile
			sr.Summary.Package = hostile
			sr.Report.CoreServiceDeaths = append(sr.Report.CoreServiceDeaths, hostile)
			cn := intent.ComponentName{Package: hostile, Class: hostile + ".Main"}
			sr.Report.Components[cn] = &analysis.ComponentReport{
				Component: cn, Type: hostile, Deliveries: 3,
				Caught: map[javalang.Class]int{javalang.Class(hostile): 1, "java.lang.Z": 2, "<": 3},
			}
			c := sr.Crashes[0]
			c.Process, c.Frames = hostile, append(c.Frames, hostile)
			c.Intent = &intent.Intent{Action: hostile, Categories: []string{hostile}, Data: intent.URI{Scheme: "tel", Opaque: hostile}}
			c.Intent.PutExtra(hostile, intent.Value{Kind: intent.KindString, Str: hostile})
			c.Flight = append(c.Flight, telemetry.Event{Seq: 9, Kind: telemetry.EventVerdict, Subject: hostile, Detail: hostile})
		}},
		{"extra floats", func(sr *ShardResult) {
			in := &intent.Intent{Component: intent.ComponentName{Package: "p", Class: "p.C"}, Flags: intent.FlagActivityNewTask}
			for _, f := range []float64{1e-7, 1e21, math.Copysign(0, -1), 1e-6, 123.456, -1.5e-10, math.MaxFloat64} {
				in.PutExtra("f", intent.Value{Kind: intent.KindFloat, F64: f})
			}
			in.PutExtra("i", intent.Value{Kind: intent.KindLong, I64: math.MinInt64})
			sr.Crashes[0].Intent = in
		}},
		{"reboot times", func(sr *ShardResult) {
			sr.Report.RebootTimes = []time.Time{time.Unix(1496309642, 0).UTC(), time.Date(2017, 6, 1, 9, 34, 2, 300_000_000, time.UTC)}
		}},
		{"non-UTC times", func(sr *ShardResult) {
			sr.Report.RebootTimes = []time.Time{time.Unix(1496309642, 0).In(zone), time.Date(2017, 6, 1, 9, 34, 2, 300, zone)}
			for i := range sr.Crashes[0].Flight {
				sr.Crashes[0].Flight[i].Time = sr.Crashes[0].Flight[i].Time.In(zone)
			}
		}},
		{"nil parts", func(sr *ShardResult) {
			sr.Report = analysis.AnalyzeEntries(nil)
			sr.Crashes = nil
		}},
		{"empty parts", func(sr *ShardResult) {
			sr.Report.RebootTimes = []time.Time{}
			sr.Report.CoreServiceDeaths = []string{}
			for _, cr := range sr.Report.Components {
				cr.Rejected, cr.Caught, cr.CrashRoots, cr.ANRClasses = nil, map[javalang.Class]int{}, nil, map[javalang.Class]int{}
			}
			sr.Crashes = []*triage.Crash{{Classes: []string{}, Frames: nil, Flight: []telemetry.Event{},
				Intent: &intent.Intent{Categories: []string{}, Extras: intent.NewBundle()}}}
		}},
		{"NaN extra", func(sr *ShardResult) {
			sr.Crashes[0].Intent = &intent.Intent{}
			sr.Crashes[0].Intent.PutExtra("nan", intent.Value{Kind: intent.KindFloat, F64: math.NaN()})
		}},
		{"infinite extra", func(sr *ShardResult) {
			sr.Crashes[0].Intent = &intent.Intent{}
			sr.Crashes[0].Intent.PutExtra("inf", intent.Value{Kind: intent.KindFloat, F64: math.Inf(-1)})
		}},
		{"year 10000", func(sr *ShardResult) {
			sr.Report.RebootTimes = []time.Time{time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC)}
		}},
		{"zone of 24 hours", func(sr *ShardResult) {
			sr.Crashes[0].Flight = append(sr.Crashes[0].Flight, telemetry.Event{
				Seq: 1, Kind: telemetry.EventReboot, Time: time.Date(2020, 1, 1, 0, 0, 0, 0, time.FixedZone("", 24*3600)),
			})
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, sr, err := DecodeShardRecord(record)
			if err != nil {
				t.Fatal(err)
			}
			tc.poke(sr)
			checkRecordOracle(t, tc.name, 7, sr)
		})
	}
}

// TestRecordSizeHintFitsRecords checks that encoding a real record into
// its pre-sized buffer never grows it, and that the hints waste little.
func TestRecordSizeHintFitsRecords(t *testing.T) {
	var hinted, encoded int
	for idx, sr := range executeAll(t, recordTestConfig(t)) {
		hint := recordSizeHint(sr)
		data, err := EncodeShardRecord(idx, sr)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > hint || cap(data) != hint {
			t.Errorf("%s: %d bytes outgrew the %d-byte hint", sr.Key, len(data), hint)
		}
		hinted += hint
		encoded += len(data)
	}
	if hinted > encoded*3/2 {
		t.Errorf("hints total %d bytes, over 1.5x the %d encoded", hinted, encoded)
	}
}

// TestProgressOnlyAfterDurable: with a checkpoint, a shard is reported
// done (Progress, the board's tally, farm_shards_done_total) only once its
// record is in the journal.
func TestProgressOnlyAfterDurable(t *testing.T) {
	cfg := recordTestConfig(t)
	reg := telemetry.NewRegistry()
	cfg.Telemetry = reg
	calls := 0
	cfg.Progress = func(done, total int, key ShardKey, _ int) {
		calls++
		_, recs, _, err := loadJournal(cfg.Sharding.Checkpoint)
		if err != nil {
			t.Errorf("load journal during progress: %v", err)
			return
		}
		journaled := false
		for _, rec := range recs {
			journaled = journaled || rec.Key == key
		}
		if !journaled {
			t.Errorf("progress reported %s before its record was journaled", key)
		}
		if n := reg.Snapshot().Counters["farm_shards_done_total"]; done > len(recs) || n > uint64(len(recs)) {
			t.Errorf("%d shards tallied and %d counted done, %d journaled", done, n, len(recs))
		}
	}
	res, err := Run(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if calls != res.Shards {
		t.Fatalf("progress calls = %d, want %d", calls, res.Shards)
	}
}

// TestJournalShortWriteIsSticky: after a write that stops mid-record, every
// later append fails with the same error, so the journal on disk replays
// exactly the records acknowledged before the failure, and reopening it
// trims the torn tail so appends land again.
func TestJournalShortWriteIsSticky(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	injected := errors.New("no space left on device")
	// The header's write and record 0's succeed; record 1's stops after 5
	// bytes.
	off := FailJournalWrite(t, 3, 5, injected)
	j, err := createJournal(path, journalHeader{Version: journalVersion})
	if err != nil {
		t.Fatal(err)
	}
	var acked []int
	for idx := 0; idx < 4; idx++ {
		switch err := j.AppendEncoded([]byte(fmt.Sprintf(`{"index":%d}`, idx))); {
		case err == nil:
			acked = append(acked, idx)
		case !errors.Is(err, injected):
			t.Fatalf("append %d: %v, want the injected short write", idx, err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	off()

	_, done, validLen, err := loadJournal(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := done[0]; !ok || len(done) != 1 || len(acked) != 1 {
		t.Fatalf("journal replays %d records, %d acknowledged; want only record 0, both times", len(done), len(acked))
	}

	j, err = openJournalAppend(path, validLen)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendEncoded([]byte(`{"index":1}`)); err != nil {
		t.Fatal(err)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if _, done, _, err = loadJournal(path); err != nil || len(done) != 2 {
		t.Fatalf("after reopening, journal replays %d records (err %v), want 2", len(done), err)
	}
}
