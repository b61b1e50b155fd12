package triage

import (
	"fmt"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/analysis"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/telemetry"
)

// A collector script is the whole input surface of the two logcat
// collectors (triage and analysis), one step per line:
//
//	R <pid> <message>            AndroidRuntime line from <pid>
//	M <message>                  ActivityManager line
//	F <message>                  FaultInject line
//	D <message>                  DEBUG line
//	G <message>                  Watchdog line
//	S <message>                  SystemServer line
//	A <tag> <pid> <message>      line from app process <tag>
//	LD <type> <flat> <pid>       lazy Delivering payload (ActivityManager)
//	LR <flat> <throwable>        lazy Rejected payload (ActivityManager)
//	LC <tag> <pid> <throwable>   lazy Caught payload from app process <tag>
//	LP <verb> <action>           lazy dispatch payload (ActivityManager)
//	LX <tag> <pid> <throwable>   lazy exception header, class and message split at ": "
//	LY <tag> <pid> <throwable>   lazy "Caused by: " header, split the same way
//	LF <tag> <pid> <class> <method> <file> <line>  lazy stack frame line
//	LN <pid> <name>              lazy "Process: <name>, PID: <pid>" (AndroidRuntime)
//	LK <pid> <name>              lazy "Process <name> (pid <pid>) has died" (ActivityManager)
//	T <ms>                       advance the log clock
//	I <action>                   AttachIntent(an intent with that action)
//	W <n>                        AttachFlight(a window of n events), when WantsFlight
//
// Unparseable lines are skipped, and so are lazy payloads the device could
// not log: a component that is not a plain flat name, or a dispatch verb
// the device does not use. testdata/fuzz/FuzzCollector holds scripts
// recorded from small wear campaigns (A–D and F) with the farm's attach
// order; `go test -fuzz=FuzzCollector ./internal/triage` explores further.

// scriptStep is one script line: a log entry, or an attach call (entry nil).
type scriptStep struct {
	entry  *logcat.Entry
	op     string // "I" or "W" for attach calls
	action string
	window int
}

// scriptEpoch is the script clock's origin, in year 0 so that entries
// survive a threadtime dump (which omits the year) and ParseLine(.., 0).
var scriptEpoch = time.Date(0, time.January, 1, 0, 0, 0, 0, time.UTC)

// dispatchVerbs are the verbs the device announces dispatches with.
var dispatchVerbs = map[string]bool{"START": true, "startService": true, "bindService": true, "broadcastIntent": true}

// plainFlat parses a flat component name made only of name characters, the
// only kind a device logs.
func plainFlat(s string) (intent.ComponentName, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.IndexByte("._$/", c) >= 0) {
			return intent.ComponentName{}, false
		}
	}
	return intent.UnflattenComponent(s)
}

// parseScript turns a script into its steps.
func parseScript(script string) []scriptStep {
	var steps []scriptStep
	now := scriptEpoch
	log := func(pid int, tag, msg string, p logcat.Payload) {
		e := &logcat.Entry{PID: int32(pid), TID: int32(pid), Level: logcat.Info, Tag: tag, Message: msg, Payload: p}
		e.SetTime(now)
		steps = append(steps, scriptStep{entry: e})
	}
	for _, line := range strings.Split(script, "\n") {
		op, rest, _ := strings.Cut(line, " ")
		switch op {
		case "R":
			pid, msg, _ := strings.Cut(rest, " ")
			if n, err := strconv.Atoi(pid); err == nil {
				log(n, logcat.TagAndroidRuntime, msg, logcat.Payload{})
			}
		case "M":
			log(1000, logcat.TagActivityManager, rest, logcat.Payload{})
		case "F":
			log(1000, logcat.TagFaultInject, rest, logcat.Payload{})
		case "D":
			log(1000, logcat.TagDEBUG, rest, logcat.Payload{})
		case "G":
			log(1000, logcat.TagWatchdog, rest, logcat.Payload{})
		case "S":
			log(1000, logcat.TagSystemServer, rest, logcat.Payload{})
		case "A", "LC":
			tag, rest, _ := strings.Cut(rest, " ")
			pid, msg, _ := strings.Cut(rest, " ")
			n, err := strconv.Atoi(pid)
			if err != nil {
				continue
			}
			if op == "A" {
				log(n, tag, msg, logcat.Payload{})
			} else {
				log(n, tag, msg, logcat.Payload{Op: logcat.MsgCaught})
			}
		case "LD":
			f := strings.Fields(rest)
			if len(f) != 3 {
				continue
			}
			cn, ok := plainFlat(f[1])
			n, err := strconv.Atoi(f[2])
			if ok && err == nil {
				log(1000, logcat.TagActivityManager, "", logcat.Payload{Op: logcat.MsgDelivering, Verb: f[0], Comp: cn, N: int32(n)})
			}
		case "LR":
			flat, msg, _ := strings.Cut(rest, " ")
			if cn, ok := plainFlat(flat); ok {
				log(1000, logcat.TagActivityManager, msg, logcat.Payload{Op: logcat.MsgRejected, Comp: cn})
			}
		case "LP":
			verb, act, _ := strings.Cut(rest, " ")
			if dispatchVerbs[verb] {
				log(1000, logcat.TagActivityManager, "", logcat.Payload{Op: logcat.MsgDispatch, Verb: verb, Act: act})
			}
		case "LX", "LY":
			tag, rest, _ := strings.Cut(rest, " ")
			pid, thrown, _ := strings.Cut(rest, " ")
			n, err := strconv.Atoi(pid)
			if err != nil {
				continue
			}
			class, msg, _ := strings.Cut(thrown, ": ")
			lop := logcat.MsgException
			if op == "LY" {
				lop = logcat.MsgCausedBy
			}
			text, p := logcat.ThrownPayload(lop, &javalang.Throwable{Class: javalang.Class(class), Message: msg})
			log(n, tag, text, p)
		case "LF":
			f := strings.Fields(rest)
			if len(f) != 6 {
				continue
			}
			n, err1 := strconv.Atoi(f[1])
			line, err2 := strconv.Atoi(f[5])
			if err1 == nil && err2 == nil {
				log(n, f[0], "", logcat.Payload{Op: logcat.MsgFrame, Verb: f[2], Act: f[3], Data: f[4], N: int32(line)})
			}
		case "LN", "LK":
			pid, name, _ := strings.Cut(rest, " ")
			n, err := strconv.Atoi(pid)
			if err != nil {
				continue
			}
			if op == "LN" {
				log(n, logcat.TagAndroidRuntime, "", logcat.Payload{Op: logcat.MsgFatalProcess, Verb: name, N: int32(n)})
			} else {
				log(1000, logcat.TagActivityManager, "", logcat.Payload{Op: logcat.MsgDied, Verb: name, N: int32(n)})
			}
		case "T":
			if ms, err := strconv.Atoi(rest); err == nil && ms >= 0 && ms <= 3_600_000 {
				now = now.Add(time.Duration(ms) * time.Millisecond)
			}
		case "I":
			steps = append(steps, scriptStep{op: op, action: rest})
		case "W":
			if n, err := strconv.Atoi(rest); err == nil && n >= 0 {
				steps = append(steps, scriptStep{op: op, window: n})
			}
		}
	}
	return steps
}

// runSteps feeds the steps to a fresh triage collector and a fresh analysis
// collector and returns both. Each collector consumes the entries with its
// own decoder, or, when shared, both observe them through the farm's
// single-decoder ShardSink.
func runSteps(steps []scriptStep, shared bool) (*Collector, *analysis.Collector) {
	c, a := NewCollector(), analysis.NewCollector()
	sink := NewShardSink(a, c)
	seq := uint64(0)
	for _, s := range steps {
		switch {
		case s.entry != nil && shared:
			sink.Consume(s.entry)
		case s.entry != nil:
			c.Consume(*s.entry)
			a.Consume(*s.entry)
		case s.op == "I":
			c.AttachIntent(&intent.Intent{Action: s.action})
		case s.op == "W":
			if !c.WantsFlight() {
				continue
			}
			window := make([]telemetry.Event, min(s.window, telemetry.DefaultRecorderCapacity))
			for i := range window {
				seq++
				window[i] = telemetry.Event{Seq: seq, Kind: telemetry.EventIntent}
			}
			c.AttachFlight("fuzz", window)
		}
	}
	return c, a
}

// runScript feeds a script to a fresh triage collector and returns it.
func runScript(script string) *Collector {
	c, _ := runSteps(parseScript(script), false)
	return c
}

// dumped returns the steps with every entry replaced by its threadtime
// text parsed back, the way a pulled dump reaches the collectors; ok is
// false when some entry's text does not survive the dump (a tag or message
// threadtime cannot carry).
func dumped(steps []scriptStep) ([]scriptStep, bool) {
	out := make([]scriptStep, len(steps))
	for i, s := range steps {
		out[i] = s
		if s.entry == nil {
			continue
		}
		e, ok := logcat.ParseLine(s.entry.Format(), 0)
		if !ok || e.Tag != s.entry.Tag || e.PID != s.entry.PID || e.Message != s.entry.Msg() || !e.Time().Equal(s.entry.Time()) {
			return nil, false
		}
		out[i].entry = &e
	}
	return out, true
}

// recordKey renders the observable identity of a triage record.
func recordKey(c *Crash) string {
	action := "-"
	if c.Intent != nil {
		action = c.Intent.Action
	}
	return fmt.Sprintf("%016x %s %q %q %q %q %q %q %d",
		c.Hash(), c.Kind, c.Process, c.Component, c.Fault, c.Classes, c.Frames, action, len(c.Flight))
}

// FuzzCollector: reassembly never panics, every crash record names its
// exception class, record hashes are stable (across calls and across a
// re-run of the same script), no bucket keeps more than two windows, every
// attributed crash the analysis counts is a triage crash record, and a
// pulled dump of the script's log yields the same triage records and the
// same analysis report as the live entries, and so does the shared
// single-decoder sink. On every leg the analysis's running exception count
// equals a walk of its report.
func FuzzCollector(f *testing.F) {
	for _, seed := range []string{
		"",
		"R 7 FATAL EXCEPTION: main\nR 7 Process: com.a, PID: 7\nR 7 java.lang.NullPointerException: x\nR 7 \tat com.a.A.run(A.java:1)\nM Process com.a (pid 7) has died\nI act\nW 64",
		"M ANR in com.a (com.a/.Main)\nI a\nW 3\nM ANR in com.a (com.a/.Main)\nI b\nW 3\nW 3",
		"F VERDICT verdict=stall fault=binder-dead target=binder app=com.a window=1-9 probes=2/3\nI a\nW 8",
		"R 1 FATAL EXCEPTION: main\nR 1 Caused by: \nM Process x (pid 1) has died\nW 1",
		"LP START act\nLD activity com.a/.Main 7\nLR com.a/.Main java.lang.IllegalArgumentException: bad\nLC com.a 7 java.lang.NumberFormatException: x\n" +
			"M java.lang.SecurityException: Permission Denial: starting com.a/.Hidden requires p targeting com.a/.Hidden\n" +
			"M Delivering to service cmp=com.a/.Svc pid=7\nM Exception thrown delivering intent to cmp=com.a/.Svc: java.lang.IllegalStateException: y\n" +
			"A com.a 7 caught exception while handling intent: java.lang.NullPointerException: z",
		"M Delivering to service cmp=com.s/.Sensor pid=9\nM ANR in com.s (com.s/.Sensor)\nA com.s 9 android.os.DeadObjectException: gone\nT 3000\nA com.s 9 java.lang.IllegalStateException: late\n" +
			"G Blocked in handler on sensor thread (client com.s unresponsive); sending SIGABRT to sensorservice\n" +
			"D Fatal signal SIGABRT in tid 80 (sensorservice), process /system/lib/libsensorservice.so\nT 1000\nS !!! REBOOTING: sensorservice died !!!",
		"LD activity com.b/.Amb 11\nR 11 FATAL EXCEPTION: main\nR 11 Process: com.b, PID: 11\nR 11 java.lang.RuntimeException: outer\nR 11 Caused by: java.lang.NullPointerException: root\nR 11 \tat com.b.Amb.onCreate(Amb.java:3)\nM Process com.b (pid 11) has died\n" +
			"S unable to bind AmbientService for com.b/.Amb after repeated start failures\nD Fatal signal SIGSEGV in system_server (pid 1000)\nS !!! REBOOTING: system_server died !!!",
		"LD activity com.c/.Main 12\nR 12 FATAL EXCEPTION: main\nLN 12 com.c\nLX AndroidRuntime 12 java.lang.RuntimeException: outer, 100%\n" +
			"LF AndroidRuntime 12 com.c.Main onCreate Main.java 3\nLY AndroidRuntime 12 java.lang.NullPointerException\n" +
			"LF AndroidRuntime 12 com.c.Main root Main.java 9\nLK 12 com.c\nI act\nW 8",
		"LD activity com.d/.Main 13\nR 13 FATAL EXCEPTION: main\nLN 13 com odd,%d\nLX AndroidRuntime 13 Weird Class: m\n" +
			"LY AndroidRuntime 13 java.lang.IllegalStateException: x\nLF AndroidRuntime 13 com.d.Main lambda(1) M,1.java -1\n" +
			"LF AndroidRuntime 13 com.d.Main run Main.java 4\nLK 13 com odd,%d\nLK 13 com(pid 13)",
		"M Delivering to service cmp=com.s/.Sensor pid=9\nM ANR in com.s (com.s/.Sensor)\nLX com.s 9 android.os.DeadObjectException: gone\n" +
			"LF com.s 9 com.s.Sensor onSensorChanged Sensor.java 88\nLY com.s 9 java.lang.IllegalStateException: late",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, script string) {
		steps := parseScript(script)
		c, a := runSteps(steps, false)
		crashes := c.Crashes()
		windows := make(map[uint64]int)
		crashRecords := 0
		for i, rec := range crashes {
			if rec.Kind == KindCrash || rec.Kind == "" {
				crashRecords++
				if len(rec.Classes) == 0 {
					t.Fatalf("crash record %d has no exception class: %+v", i, rec)
				}
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
		if got := a.Report().CrashEvents; got > crashRecords {
			t.Fatalf("analysis counted %d crashes, triage reassembled %d", got, crashRecords)
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

		sc, sa := runSteps(steps, true)
		sameCollectors(t, "shared", sc, sa, c, a)

		dump, ok := dumped(steps)
		if !ok {
			return
		}
		dc, da := runSteps(dump, false)
		sameCollectors(t, "dump", dc, da, c, a)
	})
}

// sameCollectors fails unless the triage records and the analysis report
// of a run of the script (named by how it fed the collectors) equal those
// of the live run, and both runs' exception counts match their reports.
func sameCollectors(t *testing.T, how string, c *Collector, a *analysis.Collector, liveC *Collector, liveA *analysis.Collector) {
	t.Helper()
	got, want := c.Crashes(), liveC.Crashes()
	if len(got) != len(want) {
		t.Fatalf("%s run collected %d records, live %d", how, len(got), len(want))
	}
	for i := range got {
		if g, w := recordKey(got[i]), recordKey(want[i]); g != w {
			t.Fatalf("%s record %d differs:\n %s: %s\n live: %s", how, i, how, g, w)
		}
	}
	if !reflect.DeepEqual(a.Report(), liveA.Report()) {
		t.Fatalf("%s analysis differs:\n %s: %+v\n live: %+v", how, how, a.Report(), liveA.Report())
	}
	for _, leg := range []struct {
		how string
		a   *analysis.Collector
	}{{"live", liveA}, {how, a}} {
		if got, want := leg.a.Exceptions(), countExceptions(leg.a.Report()); got != want {
			t.Fatalf("%s analysis counted %d exceptions, its report holds %d", leg.how, got, want)
		}
	}
}

// countExceptions totals every exception observation in the report
// (security, rejected, caught, crash roots, ANR traces) by walking it: the
// reference for the collector's running Exceptions count.
func countExceptions(r *analysis.Report) int {
	n := r.SecurityEvents
	for _, cr := range r.Components {
		for _, c := range cr.Rejected {
			n += c
		}
		for _, c := range cr.Caught {
			n += c
		}
		for _, c := range cr.CrashRoots {
			n += c
		}
		for _, c := range cr.ANRClasses {
			n += c
		}
	}
	return n
}
