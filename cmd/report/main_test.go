package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/report"
)

// runJSON runs the CLI at a small scale with -json and returns the export.
func runJSON(t *testing.T, args ...string) []byte {
	t.Helper()
	path := filepath.Join(t.TempDir(), "report.json")
	args = append([]string{"-quick", "16", "-only", "tab1", "-ui-events", "200", "-json", path}, args...)
	if err := run(args); err != nil {
		t.Fatalf("report %v: %v", args, err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestCheckpointWithoutWorkersShardsEveryStudy: -checkpoint alone selects
// the sharded design, for the phone study and the export too, not only for
// the wear study that owns the journal. A sharded study triages, so both
// exports carry a triage block.
func TestCheckpointWithoutWorkersShardsEveryStudy(t *testing.T) {
	ckpt := filepath.Join(t.TempDir(), "wear.ckpt")
	var doc struct{ Wear, Phone report.StudyExport }
	if err := json.Unmarshal(runJSON(t, "-checkpoint", ckpt), &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Wear.Triage == nil || doc.Phone.Triage == nil {
		t.Fatalf("triage blocks: wear %v, phone %v; -checkpoint ran an aging study",
			doc.Wear.Triage != nil, doc.Phone.Triage != nil)
	}
	if _, err := os.Stat(ckpt); err != nil {
		t.Fatalf("the wear study wrote no journal: %v", err)
	}
}

// TestShardedExportSameForAnyWorkerCount: the export carries no execution
// metadata, so a sharded run exports the same bytes on one worker or four.
func TestShardedExportSameForAnyWorkerCount(t *testing.T) {
	one := runJSON(t, "-workers", "1")
	four := runJSON(t, "-workers", "4")
	if !bytes.Equal(one, four) {
		t.Fatalf("-workers 4 export differs from -workers 1:\n%s\n---\n%s", one, four)
	}
}
