package report

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/telemetry"
)

// encoding/json is the writer's oracle: MarshalStudy must give
// json.MarshalIndent(e, "", "  ")'s bytes plus a newline, and WriteArtifacts
// what a json.Encoder with SetIndent("", "  ") writes, or both sides fail.

func oracleStudy(e *StudyExport) ([]byte, error) {
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}

func oracleArtifacts(a *Artifacts) ([]byte, error) {
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(a); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// checkOracle compares both entry points with encoding/json on a, whose
// Wear export is the study MarshalStudy renders.
func checkOracle(t *testing.T, a *Artifacts) {
	t.Helper()
	got, gotErr := MarshalStudy(&a.Wear)
	want, wantErr := oracleStudy(&a.Wear)
	sameOutput(t, "MarshalStudy", got, gotErr, want, wantErr)

	var buf bytes.Buffer
	gotErr = WriteArtifacts(&buf, a)
	want, wantErr = oracleArtifacts(a)
	if gotErr != nil && buf.Len() > 0 {
		t.Errorf("WriteArtifacts wrote %d bytes before failing: %v", buf.Len(), gotErr)
	}
	sameOutput(t, "WriteArtifacts", buf.Bytes(), gotErr, want, wantErr)
}

func sameOutput(t *testing.T, what string, got []byte, gotErr error, want []byte, wantErr error) {
	t.Helper()
	switch {
	case (gotErr == nil) != (wantErr == nil):
		t.Fatalf("%s: error %v, encoding/json's %v", what, gotErr, wantErr)
	case gotErr != nil:
		if got != nil && what == "MarshalStudy" {
			t.Fatalf("%s: %d bytes returned with error %v", what, len(got), gotErr)
		}
	case !bytes.Equal(got, want):
		gl, wl := strings.Split(string(got), "\n"), strings.Split(string(want), "\n")
		for i := 0; i < len(gl) && i < len(wl); i++ {
			if gl[i] != wl[i] {
				t.Fatalf("%s: line %d is %q, encoding/json's %q", what, i+1, gl[i], wl[i])
			}
		}
		t.Fatalf("%s: %d lines, encoding/json's %d", what, len(gl), len(wl))
	}
}

var (
	// hostileStrings need every escape encoding/json makes.
	hostileStrings = []string{
		"",
		"plain",
		"\x00\x01\b\f\n\r\t\x1f\x7f",
		`quote " backslash \ slash /`,
		"<script>&amp;</script>",
		"line\u2028para\u2029end",
		"bad \xff\xfe utf8 \xe2\x80 and \xc3",
		"é日本\U0001F600",
		"\ufffd literal",
	}
	// specialFloats sit at and around the exponent-format boundaries, plus
	// the values JSON cannot carry.
	specialFloats = []float64{
		0, math.Copysign(0, -1), 1, -1.5, 123.456, 1e-6, math.Nextafter(1e-6, 0),
		-1e-7, 1.5e-10, 5e-324, 1e20, 1e21, math.Nextafter(1e21, 0), -1e21,
		1e100, math.MaxFloat64, math.SmallestNonzeroFloat64,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	// specialTimes include years and zone offsets time.Time.MarshalJSON
	// refuses.
	specialTimes = []time.Time{
		{},
		time.Unix(0, 0).UTC(),
		time.Date(2017, 6, 1, 9, 34, 2, 300_000_000, time.UTC),
		time.Date(9999, 12, 31, 23, 59, 59, 999_999_999, time.UTC),
		time.Date(0, 1, 1, 0, 0, 0, 1, time.UTC),
		time.Date(10000, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(-1, 1, 1, 0, 0, 0, 0, time.UTC),
		time.Date(2020, 2, 29, 12, 0, 0, 0, time.FixedZone("", 23*3600+59*60)),
		time.Date(2020, 2, 29, 12, 0, 0, 0, time.FixedZone("", -(5*3600+30*60+15))),
		time.Date(2020, 2, 29, 12, 0, 0, 0, time.FixedZone("", 24*3600)),
		time.Date(2020, 2, 29, 12, 0, 0, 0, time.FixedZone("", -100*3600)),
	}
)

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// floatSlots lists a setter for every float a can carry, in a fixed order.
func floatSlots(a *Artifacts) []func(float64) {
	var s []func(float64)
	for _, e := range []*StudyExport{&a.Wear, &a.Phone} {
		s = append(s, func(f float64) { e.Combined.SecurityShare = f })
		for i := range e.TableIII {
			r := &e.TableIII[i]
			s = append(s, func(f float64) { r.Reboot = f }, func(f float64) { r.Crash = f },
				func(f float64) { r.Hang = f }, func(f float64) { r.NoEffect = f })
		}
		for i := range e.TableIV {
			r := &e.TableIV[i]
			s = append(s, func(f float64) { r.Share = f })
		}
		for i := range e.FaultResilience {
			r := &e.FaultResilience[i]
			s = append(s, func(f float64) { r.Score = f })
		}
		for _, k := range sortedKeys(e.Fig4) {
			s = append(s, func(f float64) { e.Fig4[k] = f })
		}
		if tel := e.Telemetry; tel != nil {
			for _, k := range sortedKeys(tel.Gauges) {
				s = append(s, func(f float64) { tel.Gauges[k] = f })
			}
			for _, k := range sortedKeys(tel.Histograms) {
				s = append(s, func(f float64) {
					h := tel.Histograms[k]
					h.Sum, h.P99 = f, f
					tel.Histograms[k] = h
				})
			}
		}
	}
	for i := range a.UI.Rows {
		r := &a.UI.Rows[i]
		s = append(s, func(f float64) { r.ExceptionRate = f }, func(f float64) { r.CrashRate = f })
	}
	return s
}

// stringSlots lists a setter for every string a can carry.
func stringSlots(a *Artifacts) []func(string) {
	var s []func(string)
	for _, e := range []*StudyExport{&a.Wear, &a.Phone} {
		s = append(s, func(v string) { e.Fleet = v })
		for i := range e.Campaigns {
			s = append(s, func(v string) { e.Campaigns[i].Campaign = v })
		}
		for i := range e.Combined.Uncaught {
			s = append(s, func(v string) { e.Combined.Uncaught[i].Class = v })
		}
		for i := range e.TableIII {
			s = append(s, func(v string) { e.TableIII[i].Category = v })
		}
		for i := range e.Reboot {
			s = append(s, func(v string) { e.Reboot[i] = v })
		}
		for i := range e.FaultResilience {
			s = append(s, func(v string) { e.FaultResilience[i].App = v })
		}
		if e.Triage == nil {
			continue
		}
		for i := range e.Triage.Buckets {
			b := &e.Triage.Buckets[i]
			s = append(s, func(v string) { b.Kind = v }, func(v string) { b.Frame = v },
				func(v string) { b.Exemplar = v }, func(v string) { b.Trace = v })
			for j := range b.Flight {
				ev := &b.Flight[j]
				s = append(s, func(v string) { ev.Subject = v }, func(v string) { ev.Detail = v })
			}
		}
	}
	for i := range a.UI.Rows {
		s = append(s, func(v string) { a.UI.Rows[i].Experiment = v })
	}
	return s
}

// events lists every flight-recorder event a carries.
func events(a *Artifacts) []*telemetry.Event {
	var evs []*telemetry.Event
	for _, e := range []*StudyExport{&a.Wear, &a.Phone} {
		if e.Triage == nil {
			continue
		}
		for i := range e.Triage.Buckets {
			for j := range e.Triage.Buckets[i].Flight {
				evs = append(evs, &e.Triage.Buckets[i].Flight[j])
			}
		}
	}
	return evs
}

// reshape sets one of the study's optional parts (by which) to nil, empty
// or populated (by how), the distinctions omitempty and null turn on.
func reshape(e *StudyExport, which, how byte) {
	switch which % 7 {
	case 0:
		e.Campaigns = [][]CampaignExport{nil, {}, {{Campaign: "A", Sent: 3}}}[how%3]
	case 1:
		e.Fig3a = []map[string]int{nil, {}, {"b": 2, "a": 1, "<": -1}}[how%3]
	case 2:
		e.Fig4 = []map[string]float64{nil, {}, {"z": 0.5, "A": 1e-9}}[how%3]
	case 3:
		e.Telemetry = []*telemetry.Snapshot{nil, {}, {Counters: map[string]uint64{}}, {
			Counters:   map[string]uint64{`x{k="v"}`: 1<<64 - 1, "a": 0},
			Gauges:     map[string]float64{"g": -2.5},
			Histograms: map[string]telemetry.HistogramSnapshot{"h_seconds": {Count: 3, Sum: 1e-7}},
		}}[how%4]
	case 4:
		e.Triage = []*TriageExport{nil, {}, {Buckets: []TriageBucketExport{}}, {
			RawCrashes: 2, RawANRs: 1, Unique: 1,
			Buckets: []TriageBucketExport{{Hash: "00ff", Count: 2, Flight: []telemetry.Event{}}, {
				Hash: "01", Kind: "anr", Trials: 4, Reproduced: true,
				Flight: []telemetry.Event{{Seq: 1, Kind: telemetry.EventIntent}, {Seq: 2, Kind: telemetry.EventVerdict, Detail: "anr"}},
			}},
		}}[how%4]
	case 5:
		e.FaultResilience = [][]FaultResilienceExportRow{nil, {}, {{Fault: "binder", Windows: 1, Stalls: 2, Score: 0.25}}}[how%3]
	case 6:
		e.Reboot = [][]string{nil, {}, {"com.x/.Main"}}[how%3]
	}
}

// poke rewrites a by a script of three-byte ops (op, selector, value) into
// the values a decoded document cannot hold: non-finite and boundary floats,
// invalid UTF-8, out-of-range times, unnamed event kinds, nil against empty
// parts and hostile map keys.
func poke(a *Artifacts, script []byte) {
	for len(script) >= 3 {
		op, x, y := script[0], int(script[1]), script[2]
		script = script[3:]
		switch op % 7 {
		case 0:
			if s := floatSlots(a); len(s) > 0 {
				s[x%len(s)](specialFloats[int(y)%len(specialFloats)])
			}
		case 1:
			if s := stringSlots(a); len(s) > 0 {
				s[x%len(s)](hostileStrings[int(y)%len(hostileStrings)])
			}
		case 2:
			n := min(int(y)%16, len(script))
			if s := stringSlots(a); len(s) > 0 {
				s[x%len(s)](string(script[:n]))
			}
			script = script[n:]
		case 3:
			if evs := events(a); len(evs) > 0 {
				evs[x%len(evs)].Time = specialTimes[int(y)%len(specialTimes)]
			}
		case 4:
			if evs := events(a); len(evs) > 0 {
				evs[x%len(evs)].Kind = telemetry.EventKind(y)
			}
		case 5:
			reshape([]*StudyExport{&a.Wear, &a.Phone}[x%2], byte(x/2), y)
		case 6:
			k := hostileStrings[int(y)%len(hostileStrings)]
			e := []*StudyExport{&a.Wear, &a.Phone}[x%2]
			switch (x / 2) % 3 {
			case 0:
				if e.Fig3a != nil {
					e.Fig3a[k] = x
				}
			case 1:
				if e.Fig4 != nil {
					e.Fig4[k] = float64(x) / 7
				}
			case 2:
				if e.Telemetry != nil && e.Telemetry.Counters != nil {
					e.Telemetry.Counters[k] = uint64(x)
				}
			}
		}
	}
}

// FuzzStudyExportJSON decodes a document into the export types, pokes it
// with a script and holds both entry points to encoding/json's bytes.
func FuzzStudyExportJSON(f *testing.F) {
	goldens, err := filepath.Glob(filepath.Join("testdata", "aging_*.json"))
	if err != nil || len(goldens) == 0 {
		f.Fatalf("no golden exports to seed from: %v", err)
	}
	// A script shorter than one op leaves the document as decoded.
	unpoked := []byte{0}
	for _, path := range goldens {
		doc, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(doc, unpoked)
		// A NaN, an Inf, a boundary float, a hostile string, raw invalid
		// UTF-8 and a hostile map key on a real export.
		f.Add(doc, []byte{0, 0, 17})
		f.Add(doc, []byte{0, 5, 18, 0, 3, 7})
		f.Add(doc, []byte{1, 0, 2, 1, 9, 5, 2, 1, 4, 0xff, 'a', 0xc3, '<', 6, 0, 4, 6, 2, 6, 6, 4, 8})
	}
	shard := Artifacts{UI: UIExport{Rows: []UIExportRow{{Experiment: "Semi-valid", ExceptionRate: 0.038}}}}
	reshape(&shard.Wear, 3, 3)
	reshape(&shard.Wear, 4, 3)
	reshape(&shard.Wear, 5, 2)
	doc, err := json.Marshal(shard)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(doc, unpoked)
	// Valid extreme times and zones, an unnamed kind and a tiny float; then
	// each time encoding/json refuses, alone.
	f.Add(doc, []byte{3, 0, 3, 3, 1, 7, 3, 2, 8, 3, 3, 4, 4, 0, 200, 0, 9, 11})
	for i := range specialTimes {
		f.Add(doc, []byte{3, 0, byte(i)})
	}
	f.Add([]byte(`{}`), []byte{5, 0, 1, 5, 2, 1, 5, 4, 1, 5, 6, 2, 5, 8, 1})
	f.Add([]byte(`{"wear":{"fig3a":{}},"ui":{"rows":[]}}`), unpoked)

	f.Fuzz(func(t *testing.T, doc, script []byte) {
		var a Artifacts
		if json.Unmarshal(doc, &a) != nil {
			a = Artifacts{}
		}
		if json.Unmarshal(doc, &a.Wear) != nil {
			a.Wear = StudyExport{}
		}
		poke(&a, script)
		checkOracle(t, &a)
	})
}

// TestStudyJSONMatchesEncodingJSON holds the writer to encoding/json on
// real exports: an aging study with its telemetry block, and a shard plan
// with triage flight windows and the fault-resilience table.
func TestStudyJSONMatchesEncodingJSON(t *testing.T) {
	shard, err := experiments.RunWearStudy(farm.Config{
		Seed:      1,
		Gen:       experiments.QuickGen(8),
		Campaigns: []core.Campaign{core.CampaignA, core.CampaignF},
		Packages:  []string{"com.heartwatch.wear", "com.strava.wear"},
		Sharding:  core.Sharding{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	aging := quickStudy(t)
	ui, err := experiments.RunUIStudy(experiments.UIOptions{Seed: 1, Events: 400})
	if err != nil {
		t.Fatal(err)
	}
	a := Artifacts{Wear: ExportStudy(shard, 1), Phone: ExportStudy(aging, 1), UI: ExportUI(ui)}
	if a.Wear.Triage == nil || len(a.Wear.FaultResilience) == 0 || len(events(&a)) == 0 {
		t.Fatal("shard export carries no triage flight windows or fault table")
	}
	if a.Phone.Telemetry == nil {
		t.Fatal("aging export carries no telemetry block")
	}
	checkOracle(t, &a)
	a.Wear, a.Phone = a.Phone, a.Wear
	checkOracle(t, &a)
}

// TestStudySizeHintFitsExport checks that rendering a real export into
// the pre-sized buffer never grows it, and that the hint wastes little.
func TestStudySizeHintFitsExport(t *testing.T) {
	res, err := experiments.RunWearStudy(farm.Config{
		Seed:     1,
		Gen:      experiments.QuickGen(8),
		Packages: []string{"com.heartwatch.wear", "com.strava.wear", "com.whatsapp.wear"},
		Sharding: core.Sharding{Workers: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	for name, e := range map[string]StudyExport{"shard": ExportStudy(res, 1), "aging": ExportStudy(quickStudy(t), 1)} {
		hint := studySizeHint(&e, 0) + 1
		data, err := MarshalStudy(&e)
		if err != nil {
			t.Fatal(err)
		}
		if len(data) > hint || cap(data) != hint {
			t.Errorf("%s: %d bytes outgrew the %d-byte hint", name, len(data), hint)
		}
		if name == "shard" && hint > len(data)*5/4 {
			t.Errorf("%s: hint %d is over 1.25x the %d bytes rendered", name, hint, len(data))
		}
	}
}
