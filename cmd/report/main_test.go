package main

import (
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"strings"
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

// TestAblationsAgeWhateverTheWorkers: the aging ablations and the
// rejuvenation counterfactual are aging plans by definition, so -workers
// shards the invocation's other studies but leaves their rows unchanged.
func TestAblationsAgeWhateverTheWorkers(t *testing.T) {
	agingRows := func(args ...string) string {
		t.Helper()
		out := runStdout(t, append([]string{"-quick", "3", "-only", "tab1", "-ablations"}, args...)...)
		start := strings.Index(out, "EXTENSION: AGING-MODEL ABLATIONS")
		end := strings.Index(out, "EXTENSION: INPUT-VALIDATION ERAS")
		if start < 0 || end < start {
			t.Fatalf("report %v printed no extension sections:\n%s", args, out)
		}
		return out[start:end]
	}
	aging, sharded := agingRows(), agingRows("-workers", "2")
	// At this scale the default model still reboots once.
	if !strings.Contains(aging, "default            reboots=1") || !strings.Contains(aging, "baseline reboots=1") {
		t.Fatalf("extension rows missing their reboots:\n%s", aging)
	}
	if aging != sharded {
		t.Fatalf("-workers 2 changed the aging studies:\n%s\n---\n%s", aging, sharded)
	}
}

// TestOnlyRejectsUnknownArtifacts: a misspelled -only name is an error that
// lists the valid ones, not a run that prints nothing.
func TestOnlyRejectsUnknownArtifacts(t *testing.T) {
	err := run([]string{"-only", "tab5,tab6"})
	if err == nil {
		t.Fatal("-only tab6 succeeded")
	}
	for _, want := range []string{`"tab6"`, "tab1", "tab5", "fig3b", "fig4"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

// runStdout runs the CLI with args and returns what it printed to stdout.
func runStdout(t *testing.T, args ...string) string {
	t.Helper()
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	saved := os.Stdout
	os.Stdout = w
	defer func() { os.Stdout = saved }()
	out := make(chan string)
	go func() {
		b, _ := io.ReadAll(r)
		out <- string(b)
	}()
	runErr := run(args)
	w.Close()
	text := <-out
	if runErr != nil {
		t.Fatalf("report %v: %v", args, runErr)
	}
	return text
}
