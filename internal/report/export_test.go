package report

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/experiments"
)

func TestExportStudyShape(t *testing.T) {
	sr := quickStudy(t)
	exp := ExportStudy(sr, 1)
	if exp.Fleet != "wear" || exp.Seed != 1 {
		t.Fatalf("header = %+v", exp)
	}
	if len(exp.Campaigns) != 4 {
		t.Fatalf("campaigns = %d", len(exp.Campaigns))
	}
	sent := 0
	for _, c := range exp.Campaigns {
		sent += c.Sent
	}
	if sent != exp.Sent {
		t.Fatalf("campaign sent sum %d != total %d", sent, exp.Sent)
	}
	if len(exp.TableIII) != 8 { // 4 campaigns x 2 categories
		t.Fatalf("tableIII rows = %d", len(exp.TableIII))
	}
	if exp.Combined.SecurityShare <= 0 {
		t.Fatal("security share missing")
	}
	if len(exp.Fig3a) == 0 || len(exp.Fig4) == 0 {
		t.Fatal("figure series missing")
	}
}

func TestExportJSONRoundTrip(t *testing.T) {
	sr := quickStudy(t)
	exp := ExportStudy(sr, 1)
	data, err := MarshalStudy(&exp)
	if err != nil {
		t.Fatal(err)
	}
	var back StudyExport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Fleet != exp.Fleet || back.Sent != exp.Sent || len(back.Campaigns) != len(exp.Campaigns) {
		t.Fatalf("round trip diverged: %+v vs %+v", back, exp)
	}
	// Schema stability: the field names downstream tooling depends on.
	for _, key := range []string{`"fleet"`, `"intentsSent"`, `"tableIII"`, `"fig3a"`, `"fig4CrashAppRate"`, `"securityShare"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("JSON missing key %s", key)
		}
	}
}

func TestExportUIShape(t *testing.T) {
	res, err := experiments.RunUIStudy(experiments.UIOptions{Seed: 1, Events: 800})
	if err != nil {
		t.Fatal(err)
	}
	exp := ExportUI(res)
	if len(exp.Rows) != 2 {
		t.Fatalf("rows = %d", len(exp.Rows))
	}
	if exp.Rows[0].Experiment != "Semi-valid" || exp.Rows[1].Experiment != "Random" {
		t.Fatalf("row order = %+v", exp.Rows)
	}
	var buf bytes.Buffer
	if err := WriteArtifacts(&buf, &Artifacts{UI: exp}); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte(`"injectedEvents": 800`)) {
		t.Errorf("UI JSON missing event count:\n%s", buf.String())
	}
}
