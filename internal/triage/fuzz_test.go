package triage

import (
	"strconv"
	"strings"
	"testing"

	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/telemetry"
)

// A collector script is the collector's whole input surface, one step per
// line:
//
//	R <pid> <message>   AndroidRuntime line from <pid>
//	M <message>         ActivityManager line
//	F <message>         FaultInject line
//	I <action>          AttachIntent(an intent with that action)
//	W <n>               AttachFlight(a window of n events), when WantsFlight
//
// Unparseable lines are skipped. testdata/fuzz/FuzzCollector holds scripts
// recorded from small wear campaigns (A–D and F) with the farm's attach
// order; `go test -fuzz=FuzzCollector ./internal/triage` explores further.

// runScript feeds a script to a fresh collector and returns it.
func runScript(script string) *Collector {
	c := NewCollector()
	seq := uint64(0)
	for _, line := range strings.Split(script, "\n") {
		op, rest, _ := strings.Cut(line, " ")
		switch op {
		case "R":
			pid, msg, _ := strings.Cut(rest, " ")
			n, err := strconv.Atoi(pid)
			if err != nil {
				continue
			}
			c.Consume(logcat.Entry{PID: n, Tag: logcat.TagAndroidRuntime, Message: msg})
		case "M":
			c.Consume(logcat.Entry{PID: 1000, Tag: logcat.TagActivityManager, Message: rest})
		case "F":
			c.Consume(logcat.Entry{PID: 1000, Tag: logcat.TagFaultInject, Message: rest})
		case "I":
			c.AttachIntent(&intent.Intent{Action: rest})
		case "W":
			n, err := strconv.Atoi(rest)
			if err != nil || n < 0 || !c.WantsFlight() {
				continue
			}
			window := make([]telemetry.Event, min(n, telemetry.DefaultRecorderCapacity))
			for i := range window {
				seq++
				window[i] = telemetry.Event{Seq: seq, Kind: telemetry.EventIntent}
			}
			c.AttachFlight("fuzz", window)
		}
	}
	return c
}

// FuzzCollector: reassembly never panics, every crash record names its
// exception class, record hashes are stable (across calls and across a
// re-run of the same script), and no bucket keeps more than two windows.
func FuzzCollector(f *testing.F) {
	for _, seed := range []string{
		"",
		"R 7 FATAL EXCEPTION: main\nR 7 Process: com.a, PID: 7\nR 7 java.lang.NullPointerException: x\nR 7 \tat com.a.A.run(A.java:1)\nM Process com.a (pid 7) has died\nI act\nW 64",
		"M ANR in com.a (com.a/.Main)\nI a\nW 3\nM ANR in com.a (com.a/.Main)\nI b\nW 3\nW 3",
		"F VERDICT verdict=stall fault=binder-dead target=binder app=com.a window=1-9 probes=2/3\nI a\nW 8",
		"R 1 FATAL EXCEPTION: main\nR 1 Caused by: \nM Process x (pid 1) has died\nW 1",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		c := runScript(script)
		crashes := c.Crashes()
		windows := make(map[uint64]int)
		for i, rec := range crashes {
			if (rec.Kind == KindCrash || rec.Kind == "") && len(rec.Classes) == 0 {
				t.Fatalf("crash record %d has no exception class: %+v", i, rec)
			}
			h := rec.Hash()
			cp := *rec
			if rec.Hash() != h || cp.Hash() != h {
				t.Fatalf("record %d hash is not stable", i)
			}
			if rec.Flight != nil {
				windows[h]++
				if windows[h] > 2 {
					t.Fatalf("bucket %016x keeps %d windows, want <= 2", h, windows[h])
				}
			}
		}
		again := runScript(script).Crashes()
		if len(again) != len(crashes) {
			t.Fatalf("re-run collected %d records, first run %d", len(again), len(crashes))
		}
		for i := range again {
			if again[i].Hash() != crashes[i].Hash() || len(again[i].Flight) != len(crashes[i].Flight) {
				t.Fatalf("re-run record %d differs: %+v vs %+v", i, again[i], crashes[i])
			}
		}
	})
}
