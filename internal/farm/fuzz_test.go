package farm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// The shard table is restored from these bytes: journal lines on resume and
// uploaded records on the coordinator. `go test` runs the seed corpus
// (testdata/fuzz holds real records and journals from small runs: the
// `journal-v3*` and `record-v3-folded` files carry folded crash lists,
// `journal` and `journal-torn` are v2 journals, which the loader refuses,
// and `record-negative-repeats` is a record the decoder refuses;
// TestResumeRejectsUnfoldedOrNegativeJournal pins both refusals);
// `go test -fuzz=FuzzLoadJournal ./internal/farm` explores further.

// FuzzDecodeShardRecord: decoding never panics, and a record that decodes
// re-encodes to encoding/json's bytes for it (json.Marshal of its recordOf),
// which decode and re-encode identically.
func FuzzDecodeShardRecord(f *testing.F) {
	for _, seed := range []string{
		`{}`,
		`{"index":3,"key":{"campaign":1,"package":"com.a"},"sent":7,"bootCount":1}`,
		`{"index":-1,"report":{},"crashes":[{}]}`,
		`{"index":0,"crashes":[{"intent":{"component":{}}}]}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, sr, err := DecodeShardRecord(data)
		if err != nil {
			return
		}
		enc, err := EncodeShardRecord(idx, sr)
		if err != nil {
			t.Fatalf("decoded record does not re-encode: %v", err)
		}
		if want, err := json.Marshal(recordOf(idx, sr)); err != nil || !bytes.Equal(enc, want) {
			t.Fatalf("encoding differs from encoding/json's (err %v):\n%s\n%s", err, enc, want)
		}
		idx2, sr2, err := DecodeShardRecord(enc)
		if err != nil {
			t.Fatalf("re-encoded record does not decode: %v\n%s", err, enc)
		}
		enc2, err := EncodeShardRecord(idx2, sr2)
		if err != nil {
			t.Fatalf("second re-encode failed: %v", err)
		}
		if !bytes.Equal(enc, enc2) {
			t.Fatalf("re-encoding is not stable:\n%s\n%s", enc, enc2)
		}
	})
}

// FuzzLoadJournal: loading never panics; an accepted journal's valid
// prefix ends a line and alone restores the same header and records; and
// a torn tail (a record cut before its newline, at any length, even one
// that parses) never adds a record past that prefix.
func FuzzLoadJournal(f *testing.F) {
	hdr := fmt.Sprintf(`{"v":%d,"fingerprint":1,"shards":2,"seed":1,"fleet":"wear"}`+"\n", journalVersion)
	f.Add([]byte(hdr), uint(0))
	f.Add([]byte(hdr+`{"index":0,"key":{"campaign":1,"package":"com.a"},"sent":3}`+"\n"), uint(5))
	f.Add([]byte(hdr+`{"index":0}`+"\n\n"+`{"index":1,"se`), uint(9))
	f.Add([]byte(hdr+`{"index":0}`+"\nnot json\n"+`{"index":1}`+"\n"), uint(1000))
	f.Add([]byte(hdr[:len(hdr)-1]), uint(0))
	f.Add([]byte("garbage\n"), uint(1))
	f.Add([]byte(""), uint(0))
	f.Fuzz(func(t *testing.T, data []byte, cut uint) {
		dir := t.TempDir()
		load := func(name string, b []byte) (journalHeader, map[int]journalRecord, int64, error) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, b, 0o644); err != nil {
				t.Fatal(err)
			}
			return loadJournal(path)
		}
		h, done, validLen, err := load("journal", data)
		if err != nil {
			return
		}
		if validLen < 1 || validLen > int64(len(data)) || data[validLen-1] != '\n' {
			t.Fatalf("valid prefix of %d bytes (of %d) does not end a line", validLen, len(data))
		}
		prefix := data[:validLen:validLen]
		same := func(what string, b []byte) {
			t.Helper()
			h2, done2, validLen2, err := load("check", b)
			if err != nil || h2 != h || validLen2 != validLen || !reflect.DeepEqual(done2, done) {
				t.Fatalf("%s restores header %+v, %d records, valid %d (err %v); want %+v, %d records, valid %d",
					what, h2, len(done2), validLen2, err, h, len(done), validLen)
			}
		}
		same("the valid prefix", prefix)

		fresh := 0
		for idx := range done {
			fresh = max(fresh, idx+1)
		}
		rec, err := json.Marshal(journalRecord{Index: fresh, Key: ShardKey{Package: "torn"}})
		if err != nil {
			t.Fatal(err)
		}
		same("the valid prefix plus a torn record", append(prefix, rec[:cut%uint(len(rec)+1)]...))
	})
}
