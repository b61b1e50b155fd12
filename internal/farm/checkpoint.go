package farm

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"os"
	"strings"
	"sync"

	"repro/internal/core"
	"repro/internal/jsonw"
)

// The checkpoint journal mirrors the paper's reboot-resume scripts: the real
// study ran 1000-intent chunks and a watchdog script restarted the campaign
// from the last completed chunk after every device reboot. Here a chunk is
// one shard (campaign × package); every completed shard's JSON line is
// appended and fsynced before the shard counts as done, and -resume replays
// the journal instead of re-executing finished shards. farm.Run appends
// every record waiting to be committed with one fsync, so a SIGKILL at any
// instant loses at most the shards in flight plus the records waiting or in
// the unsynced batch.
//
// Format (JSON lines):
//
//	line 1:  journalHeader — version, plan fingerprint, shard count
//	line 2+: journalRecord — one completed shard with its full merge inputs
//
// A truncated final line (the SIGKILL artifact) is detected and ignored on
// load. The header fingerprint covers everything that shapes the shard plan
// (seed, fleet, campaigns, targets, generator scaling), so a journal can
// never be resumed against a run it does not describe.

// journalVersion is bumped on any incompatible format change. v2 added
// flight-recorder windows (kind/component/trace/flight) to crash records;
// v3 folds each shard's crash list (triage.Fold) and weights the kept
// records with "repeats", which a v2 reader would count once.
const journalVersion = 3

// journalHeader is the first line of a checkpoint file.
type journalHeader struct {
	Version     int    `json:"v"`
	Fingerprint uint64 `json:"fingerprint"`
	Shards      int    `json:"shards"`
	Seed        uint64 `json:"seed"`
	Fleet       string `json:"fleet"`
}

// journalRecord is one completed shard.
type journalRecord struct {
	Index     int          `json:"index"`
	Key       ShardKey     `json:"key"`
	Seed      uint64       `json:"seed"`
	Sent      int          `json:"sent"`
	BootCount int          `json:"bootCount"`
	Summary   core.Summary `json:"summary"`
	Report    reportJSON   `json:"report"`
	Crashes   []crashJSON  `json:"crashes,omitempty"`
}

// result is writeRecord's inverse: the merge input the record encodes, for
// journal replay and uploaded records alike. A negative fold weight is
// refused: it would drive bucket counts and tallies below the truth.
func (rec journalRecord) result() (*ShardResult, error) {
	for i, cj := range rec.Crashes {
		if cj.Repeats < 0 {
			return nil, fmt.Errorf("shard record %d: crash %d has negative repeats %d", rec.Index, i, cj.Repeats)
		}
	}
	return &ShardResult{
		Key:       rec.Key,
		Seed:      rec.Seed,
		Sent:      rec.Sent,
		BootCount: rec.BootCount,
		Summary:   rec.Summary,
		Report:    rec.Report.restore(),
		Crashes:   restoreCrashes(rec.Crashes),
	}, nil
}

// EncodeShardRecord renders one shard result in the checkpoint journal's
// wire form (one JSON line, no trailing newline) into a buffer sized for it.
// The same bytes serve as a journal record and as a worker's result-upload
// body, so a record that round-trips the journal and one that crossed the
// network restore identically — the byte-identical-merge proof covers both.
// A value JSON cannot carry (a NaN extra, a time outside years 0-9999) is
// an error, as it is for encoding/json.
func EncodeShardRecord(idx int, sr *ShardResult) ([]byte, error) {
	w := jsonw.Writer{B: make([]byte, 0, recordSizeHint(sr))}
	writeRecord(&w, idx, sr)
	if err := w.Err(); err != nil {
		return nil, fmt.Errorf("farm: encode checkpoint record: %w", err)
	}
	return w.B, nil
}

// DecodeShardRecord parses a journal-form shard record back into the merge
// input it encodes.
func DecodeShardRecord(data []byte) (int, *ShardResult, error) {
	var rec journalRecord
	if err := json.Unmarshal(data, &rec); err != nil {
		return 0, nil, fmt.Errorf("farm: decode shard record: %w", err)
	}
	sr, err := rec.result()
	if err != nil {
		return 0, nil, fmt.Errorf("farm: decode shard record: %w", err)
	}
	return rec.Index, sr, nil
}

// fingerprint hashes the run parameters that determine the shard plan and
// per-shard outcomes. Workers is deliberately excluded: the determinism
// contract makes results independent of worker count, so a journal written
// by -workers 8 resumes fine under -workers 1 and vice versa.
func fingerprint(seed uint64, fleet string, shards []ShardKey, gen core.GeneratorConfig) uint64 {
	h := fnv.New64a()
	fmt.Fprintf(h, "v%d|seed=%d|fleet=%s|gen=%d,%d,%d,%d|", journalVersion, seed, fleet,
		gen.ActionStride, gen.SchemeStride, gen.RandomVariants, gen.ExtrasVariants)
	for _, k := range shards {
		if k.Campaign == core.CampaignF {
			// Fault shards fold the fault-engine schedule version in: a
			// journal written under a different fault model must not resume.
			fmt.Fprintf(h, "fault=v1|")
			break
		}
	}
	for _, k := range shards {
		fmt.Fprintf(h, "%s;", k.String())
	}
	return h.Sum64()
}

// ShardJournal is the append side of a checkpoint file: the durable
// work-queue log farm.Run and the service coordinator both write. The
// coordinator appends one fsynced record per upload; farm.Run appends every
// record waiting to be committed with one fsync (appendRecords). Safe for
// concurrent appends from several goroutines.
type ShardJournal struct {
	mu sync.Mutex
	f  journalFile
	// err is the first write or fsync failure, which every later append
	// returns without writing: a short write leaves a torn line that the
	// next record would run on into, and loadJournal stops at the first
	// malformed line, so a record appended after it would be acknowledged
	// yet lost on restart.
	err error
}

// journalFile is what a ShardJournal writes through: the checkpoint's
// *os.File, or whatever wrapJournalFile makes of it.
type journalFile interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// wrapJournalFile, when non-nil, wraps every checkpoint file the package
// opens: the seam through which tests fail a write or an fsync.
var wrapJournalFile func(*os.File) journalFile

func newShardJournal(f *os.File) *ShardJournal {
	if wrapJournalFile != nil {
		return &ShardJournal{f: wrapJournalFile(f)}
	}
	return &ShardJournal{f: f}
}

// createJournal starts a fresh checkpoint file (truncating any previous
// content) and writes the header.
func createJournal(path string, h journalHeader) (*ShardJournal, error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, fmt.Errorf("farm: create checkpoint: %w", err)
	}
	j := newShardJournal(f)
	data, err := json.Marshal(h)
	if err == nil {
		err = j.AppendEncoded(data)
	}
	if err != nil {
		j.Close()
		return nil, err
	}
	return j, nil
}

// openJournalAppend reopens an existing checkpoint for further records,
// first truncating it to validLen so a torn trailing record from the killed
// run cannot run into the next append.
func openJournalAppend(path string, validLen int64) (*ShardJournal, error) {
	if err := os.Truncate(path, validLen); err != nil {
		return nil, fmt.Errorf("farm: trim torn checkpoint tail: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("farm: reopen checkpoint: %w", err)
	}
	return newShardJournal(f), nil
}

// AppendEncoded durably records one already-encoded line (sans newline) —
// on the coordinator, the bytes a worker uploaded, avoiding a decode/
// re-encode round trip on its hot path. The caller must have validated the
// record. The fsync is the point: the record survives a SIGKILL.
func (j *ShardJournal) AppendEncoded(line []byte) error {
	return j.appendLines(append(line, '\n'))
}

// appendLines durably records one or more newline-terminated lines with
// one write and one fsync.
func (j *ShardJournal) appendLines(lines []byte) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.err != nil {
		return j.err
	}
	if _, err := j.f.Write(lines); err != nil {
		j.err = fmt.Errorf("farm: write checkpoint record: %w", err)
	} else if err := j.f.Sync(); err != nil {
		j.err = fmt.Errorf("farm: sync checkpoint: %w", err)
	}
	return j.err
}

// Close releases the journal file handle. Nil-safe.
func (j *ShardJournal) Close() error {
	if j == nil {
		return nil
	}
	return j.f.Close()
}

// appendRecords encodes the shards' records into w's reused buffer and
// appends them with one write and one fsync.
func (j *ShardJournal) appendRecords(w *jsonw.Writer, batch []executed) error {
	*w = jsonw.Writer{B: w.B[:0]}
	for _, e := range batch {
		writeRecord(w, e.idx, e.sr)
		w.B = append(w.B, '\n')
	}
	if err := w.Err(); err != nil {
		return fmt.Errorf("farm: encode checkpoint record: %w", err)
	}
	return j.appendLines(w.B)
}

// loadJournal reads a checkpoint file, tolerating a truncated tail: the
// first malformed or unterminated line ends the replay (everything after it
// was in flight when the run died). Records for the same shard index keep
// the last occurrence. validLen is the byte length of the durable prefix;
// the resume path truncates the file to it before appending, so a torn
// partial record never corrupts the next journal line.
func loadJournal(path string) (journalHeader, map[int]journalRecord, int64, error) {
	var hdr journalHeader
	data, err := os.ReadFile(path)
	if err != nil {
		return hdr, nil, 0, err
	}
	lines := strings.SplitAfter(string(data), "\n")
	if len(lines) == 0 || strings.TrimSpace(lines[0]) == "" || !strings.HasSuffix(lines[0], "\n") {
		return hdr, nil, 0, fmt.Errorf("farm: checkpoint %s is empty or its header is torn", path)
	}
	if err := json.Unmarshal([]byte(lines[0]), &hdr); err != nil {
		return hdr, nil, 0, fmt.Errorf("farm: checkpoint %s: bad header: %w", path, err)
	}
	if hdr.Version != journalVersion {
		return hdr, nil, 0, fmt.Errorf("farm: checkpoint %s: version %d, want %d", path, hdr.Version, journalVersion)
	}
	done := make(map[int]journalRecord)
	validLen := int64(len(lines[0]))
	for _, line := range lines[1:] {
		// AppendEncoded writes record+newline in one call, so an unterminated
		// line is by definition a torn write — even if it happens to parse.
		if !strings.HasSuffix(line, "\n") {
			break
		}
		if strings.TrimSpace(line) == "" {
			validLen += int64(len(line))
			continue
		}
		var rec journalRecord
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			// Truncated tail: the run was killed mid-append. Everything up
			// to here is durable; the partial record is re-executed.
			break
		}
		done[rec.Index] = rec
		validLen += int64(len(line))
	}
	return hdr, done, validLen, nil
}
