package logcat

import (
	"testing"
	"time"
)

// FuzzParseLine asserts the log parser never panics and that any line it
// accepts carries consistent fields (the analyzer trusts these).
func FuzzParseLine(f *testing.F) {
	sample := Entry{PID: 1234, TID: 1240, Level: Error, Tag: TagAndroidRuntime, Message: "FATAL EXCEPTION: main"}
	sample.SetTime(time.Date(0, 6, 1, 9, 30, 15, 123_000_000, time.UTC))
	f.Add(sample.Format())
	f.Add("06-01 09:30:15.123  1000  1000 I boot: BOOT_COMPLETED")
	f.Add("06-01 09:30:15.123  1000  1000 W Tag: nested: colons: here")
	f.Add("garbage")
	f.Add("")
	f.Add("06-01 09:30:15.123 xx yy Z Tag: msg")
	f.Fuzz(func(t *testing.T, line string) {
		e, ok := ParseLine(line, 0)
		if !ok {
			return
		}
		if e.Level < Verbose || e.Level > Fatal {
			t.Fatalf("parsed invalid level %d from %q", e.Level, line)
		}
		// Accepted entries must re-format and re-parse stably.
		e2, ok2 := ParseLine(e.Format(), 0)
		if !ok2 {
			t.Fatalf("re-parse of formatted entry failed: %q", e.Format())
		}
		if e2.PID != e.PID || e2.TID != e.TID || e2.Level != e.Level || e2.Tag != e.Tag {
			t.Fatalf("round trip diverged: %+v vs %+v", e, e2)
		}
	})
}
