package logcat

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/intent"
)

func TestNormalizeFrame(t *testing.T) {
	cases := map[string]string{
		"\tat com.foo.Bar.baz(Bar.java:42)": "com.foo.Bar.baz",
		"at com.foo.Bar.baz(Native Method)": "com.foo.Bar.baz",
		"\tat com.foo.Bar.baz":              "com.foo.Bar.baz",
	}
	for in, want := range cases {
		got, ok := normalizeFrame(in)
		if !ok || got != want {
			t.Fatalf("normalizeFrame(%q) = %q, %v; want %q", in, got, ok, want)
		}
	}
	if _, ok := normalizeFrame("\tat ("); ok {
		t.Fatal("empty frame must not normalize")
	}
}

func decodeAll(d *Decoder, entries ...Entry) []Event {
	out := make([]Event, len(entries))
	for i := range entries {
		out[i] = *d.Decode(&entries[i])
	}
	return out
}

func runtimeLine(pid int32, msg string) Entry {
	return Entry{PID: pid, TID: pid, Level: Error, Tag: TagAndroidRuntime, Message: msg}
}

func amLine(msg string) Entry {
	return Entry{PID: 1000, TID: 1000, Level: Info, Tag: TagActivityManager, Message: msg}
}

func TestDecoderReassemblesFatalBlock(t *testing.T) {
	var d Decoder
	evs := decodeAll(&d,
		runtimeLine(7, "FATAL EXCEPTION: main"),
		runtimeLine(8, "FATAL EXCEPTION: main"),
		runtimeLine(7, "Process: com.a, PID: 7"),
		runtimeLine(7, "java.lang.RuntimeException: wrap"),
		runtimeLine(7, "\tat com.a.A.outer(A.java:1)"),
		runtimeLine(8, "java.lang.IllegalStateException: other pid"),
		runtimeLine(7, "Caused by: java.lang.NullPointerException: root"),
		runtimeLine(7, "\tat com.a.A.root(A.java:2)"),
		runtimeLine(7, "\tat com.a.A.caller(A.java:3)"),
		amLine("Process com.a (pid 7) has died"),
	)
	for i, ev := range evs[:len(evs)-1] {
		if ev.Kind != EventNone {
			t.Fatalf("line %d decoded to %+v before the block ended", i, ev)
		}
	}
	want := Event{
		Kind: EventFatal, PID: 7, Proc: "com.a",
		Classes: []string{"java.lang.RuntimeException", "java.lang.NullPointerException"},
		Frames:  []string{"com.a.A.root", "com.a.A.caller"},
	}
	if got := evs[len(evs)-1]; !reflect.DeepEqual(got, want) {
		t.Fatalf("fatal event = %+v, want %+v", got, want)
	}
	if ev := d.Decode(&Entry{PID: 1000, Tag: TagActivityManager, Message: "Process com.a (pid 7) has died"}); ev.Kind != EventNone {
		t.Fatalf("a second death of the same pid decoded to %+v", ev)
	}
}

// The device cannot log a block that straddles a reboot (crashProcess writes
// the block and its "has died" line back to back), so a reboot drops every
// open block: a death after the reboot belongs to a new process.
func TestDecoderDropsBlocksOnReboot(t *testing.T) {
	var d Decoder
	evs := decodeAll(&d,
		runtimeLine(5, "FATAL EXCEPTION: main"),
		runtimeLine(5, "java.lang.IllegalStateException: y"),
		Entry{PID: 1000, Tag: TagSystemServer, Message: "!!! REBOOTING: test !!!"},
		amLine("Process com.r (pid 5) has died"),
	)
	if evs[2].Kind != EventReboot {
		t.Fatalf("reboot line decoded to %+v", evs[2])
	}
	if evs[3].Kind != EventNone {
		t.Fatalf("block opened before the reboot finalized after it: %+v", evs[3])
	}
}

// An ANR carries its component text verbatim (triage buckets on it) and its
// parse, zero when the text is not a flat component name.
func TestDecoderANRKeepsComponentText(t *testing.T) {
	var d Decoder
	cases := []struct {
		msg  string
		want Event
	}{
		{"ANR in com.a (com.a/.Main)", Event{Kind: EventANR, Proc: "com.a", Text: "com.a/.Main",
			Comp: intent.ComponentName{Package: "com.a", Class: "com.a.Main"}}},
		{"ANR in com.a (not-a-flat)", Event{Kind: EventANR, Proc: "com.a", Text: "not-a-flat"}},
		{"ANR in com.a", Event{}},
	}
	for _, c := range cases {
		e := amLine(c.msg)
		if got := *d.Decode(&e); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Decode(%q) = %+v, want %+v", c.msg, got, c.want)
		}
	}
}

// Lines no consumer reads are not parsed: a lazy dispatch announcement
// decodes to nothing, and an app-tag line is handed over as text — its
// exception header, if any, is the consumer's to parse inside an ANR-trace
// window.
func TestDecoderLeavesUnreadLinesAlone(t *testing.T) {
	var d Decoder
	dispatch := Entry{Tag: TagActivityManager, Payload: Payload{Op: MsgDispatch, Verb: "START", Act: "a"}}
	if ev := d.Decode(&dispatch); ev.Kind != EventNone {
		t.Fatalf("dispatch decoded to %+v", ev)
	}
	app := Entry{PID: 42, Tag: "com.a", Message: "android.os.DeadObjectException: gone"}
	want := Event{Kind: EventAppLine, Text: app.Message}
	if ev := *d.Decode(&app); !reflect.DeepEqual(ev, want) {
		t.Fatalf("app line decoded to %+v, want %+v", ev, want)
	}
	boot := Entry{PID: 1, Tag: TagBoot, Message: "BOOT_COMPLETED"}
	if ev := d.Decode(&boot); ev.Kind != EventAppLine || ev.Text != boot.Message {
		t.Fatalf("boot line decoded to %+v", ev)
	}
}

func TestDecoderKinds(t *testing.T) {
	comp := intent.ComponentName{Package: "com.a", Class: "com.a.Main"}
	cases := []struct {
		e    Entry
		want Event
	}{
		{amLine("Delivering to service cmp=com.a/.Main pid=12"), Event{Kind: EventDelivery, PID: 12, Comp: comp, Text: "service"}},
		{amLine("java.lang.SecurityException: Permission Denial: starting com.a/.Main requires p targeting com.a/.Main"),
			Event{Kind: EventDenial, Comp: comp}},
		{amLine("Exception thrown delivering intent to cmp=com.a/.Main: java.lang.IllegalArgumentException: bad"),
			Event{Kind: EventRejection, Comp: comp, Class: "java.lang.IllegalArgumentException"}},
		{Entry{PID: 12, Tag: "com.a", Message: "caught exception while handling intent: java.lang.NullPointerException: x"},
			Event{Kind: EventCaught, PID: 12, Class: "java.lang.NullPointerException"}},
		{Entry{Tag: TagDEBUG, Message: "Fatal signal SIGABRT in tid 80 (sensorservice), process /system/lib/libsensorservice.so"},
			Event{Kind: EventSignal, Proc: "sensorservice", Text: "SIGABRT"}},
		{Entry{Tag: TagDEBUG, Message: "Fatal signal SIGKILL in tid 1 (other_process)"}, Event{}},
		{Entry{Tag: TagWatchdog, Message: "Blocked in handler on sensor thread (client com.s unresponsive); sending SIGABRT to sensorservice"},
			Event{Kind: EventWatchdog, Proc: "com.s"}},
		{Entry{Tag: TagSystemServer, Message: "unable to bind AmbientService for com.a/.Main after repeated start failures"},
			Event{Kind: EventAmbient, Comp: comp}},
		{Entry{Tag: TagFaultInject, Message: "VERDICT verdict=stall fault=binder-dead target=binder app=com.a window=1-9 probes=2/3"},
			Event{Kind: EventVerdict, Verdict: "stall", Fault: "binder-dead", Target: "binder", Proc: "com.a"}},
		{Entry{Tag: TagFaultInject, Message: "VERDICT fault=binder-dead"}, Event{}},
		{Entry{Tag: TagFaultInject, Message: "opening binder-dead fault window [1,9] on binder"},
			Event{Kind: EventAppLine, Text: "opening binder-dead fault window [1,9] on binder"}},
		{amLine("Reason: Input dispatching timed out"), Event{}},
	}
	for _, c := range cases {
		var d Decoder
		if got := *d.Decode(&c.e); !reflect.DeepEqual(got, c.want) {
			t.Errorf("Decode(%s %q) = %+v, want %+v", c.e.Tag, c.e.Message, got, c.want)
		}
	}
}

// fuzzVerbs are the verbs lazy payloads carry: dispatch verbs and component
// types.
var fuzzVerbs = []string{"START", "startService", "bindService", "broadcastIntent", "activity", "service", "receiver"}

// plainComponent parses a flat component name made only of name
// characters, the only kind the device logs.
func plainComponent(s string) (intent.ComponentName, bool) {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || strings.IndexByte("._$/", c) >= 0) {
			return intent.ComponentName{}, false
		}
	}
	return intent.UnflattenComponent(s)
}

// fuzzEntry builds an eager entry (op%numOps == 0) or a lazy one whose
// operands are ones the device can log; ok is false for a lazy payload whose
// target component is not loggable. A gate denial takes flat's two halves as
// they are, so its component need not parse back from its flat form (an
// empty or '.'-led class, blanks, a zero name): the device logs whatever the
// intent names. An op rendering an exception takes text whole as its
// message, or, with bits&32, split at its first ": " into class and
// message. A frame takes flat's halves as class and method, text as its
// file and pid as its line; the block ops take text as the process name. A
// dispatch carries the launcher category with bits&64.
func fuzzEntry(op uint8, tag string, pid int32, text, flat string, bits uint8) (Entry, bool) {
	e := Entry{PID: pid, TID: pid, Level: Level(1 + bits%6), Tag: tag, Message: text}
	e.SetTime(time.Date(2026, 6, 1, 9, 30, 15, 123_000_000, time.UTC))
	const numOps = uint8(MsgDied) + 1
	if op%numOps == 0 {
		return e, true
	}
	comp, ok := plainComponent(flat)
	p := Payload{
		Op: MsgOp(op % numOps), Verb: fuzzVerbs[int(bits)%len(fuzzVerbs)],
		Act: text, Data: flat, HasData: bits&8 != 0, HasExtras: bits&16 != 0,
		Comp: comp, N: pid,
	}
	switch p.Op {
	case MsgDenyProtected, MsgDenyNotExported, MsgDenyPermission, MsgNotFound:
		pkg, cls, _ := strings.Cut(flat, "/")
		p.Comp = intent.ComponentName{Package: pkg, Class: cls}
	case MsgDispatch:
		p.Launcher = bits&64 != 0
	case MsgCaught, MsgRejected, MsgException, MsgCausedBy:
		if p.Op == MsgRejected && !ok {
			return Entry{}, false
		}
		p.Verb = ""
		if class, msg, found := strings.Cut(text, ": "); bits&32 != 0 && found && class != "" {
			p.Verb, e.Message = class, msg
		}
	case MsgFrame:
		p.Verb, p.Act, _ = strings.Cut(flat, "/")
		p.Data, e.Message = text, ""
	case MsgFatalProcess, MsgDied:
		p.Verb, e.Message = text, ""
	default:
		if !ok {
			return Entry{}, false
		}
	}
	e.Payload = p
	return e, true
}

// FuzzDecode: decoding never panics, an entry decodes exactly like its
// threadtime text parsed back — a pulled dump decodes like the live stream,
// for every event kind, lazy payloads included. With primed set the
// decoders hold an open FATAL block for the entry's PID, and a "has died"
// line follows the entry either way, so block reassembly is compared too.
func FuzzDecode(f *testing.F) {
	golden, err := os.ReadFile("../../testdata/golden_dump.txt")
	if err != nil {
		f.Fatal(err)
	}
	shapes := map[string]bool{}
	for _, line := range strings.Split(strings.TrimSpace(string(golden)), "\n") {
		e, ok := ParseLine(line, 0)
		if !ok {
			f.Fatalf("golden line does not parse: %q", line)
		}
		words := strings.Fields(e.Message)
		shape := e.Tag
		for i := 0; i < len(words) && i < 2; i++ {
			shape += " " + words[i]
		}
		if !shapes[shape] {
			shapes[shape] = true
			f.Add(uint8(0), e.Tag, e.PID, e.Message, "", uint8(0), true)
		}
	}
	for _, s := range []struct {
		op   uint8
		tag  string
		pid  int32
		text string
		flat string
		bits uint8
	}{
		{0, TagActivityManager, 1000, "ANR in com.a (com.a/.Main)", "", 0},
		{0, TagSystemServer, 1000, "!!! REBOOTING: sensorservice died !!!", "", 0},
		{0, TagDEBUG, 80, "Fatal signal SIGABRT in tid 80 (sensorservice), process /system/lib/libsensorservice.so", "", 0},
		{0, TagWatchdog, 1000, "Blocked in handler on sensor thread (client com.s unresponsive); sending SIGABRT to sensorservice", "", 0},
		{0, TagSystemServer, 1000, "unable to bind AmbientService for com.a/.Main after repeated start failures", "", 0},
		{0, TagFaultInject, 1000, "VERDICT verdict=stall fault=binder-dead target=binder app=com.a window=1-9 probes=2/3", "", 0},
		{0, TagAndroidRuntime, 77, "Caused by: java.lang.NullPointerException: root", "", 0},
		{uint8(MsgDispatch), TagActivityManager, 10123, "android.intent.action.VIEW", "com.a/.Main", 8 | 16},
		{uint8(MsgDelivering), TagActivityManager, 77, "", "com.a/.Main", 4},
		{uint8(MsgRejected), TagActivityManager, 77, "java.lang.IllegalArgumentException: bad", "com.a/.Main", 0},
		{uint8(MsgCaught), "com.a", 77, "java.lang.NullPointerException: x", "", 0},
		{uint8(MsgCaught), TagWatchdog, 77, "(client com.a unresponsive)", "", 0},
		{uint8(MsgDenyProtected), TagActivityManager, 10123, "android.intent.action.BATTERY_LOW", "com.a/com.a.Main", 0},
		{uint8(MsgDenyNotExported), TagActivityManager, 10123, "", "com.a/com.a.Private", 0},
		{uint8(MsgDenyPermission), TagActivityManager, 10123, "android.permission.BODY_SENSORS", "com.a/com.a.Guarded", 0},
		{uint8(MsgNotFound), TagActivityManager, 10123, "", "com.a/com.a.Missing", 4},
		{uint8(MsgNotFound), TagActivityManager, 10123, "", "com.a/com.a.Missing", 5},
		{uint8(MsgDenyProtected), TagActivityManager, 10123, "android.intent.action.BATTERY_LOW", "", 0},
		{uint8(MsgDenyNotExported), TagActivityManager, 10123, "", "com.a/", 0},
		{uint8(MsgDenyNotExported), TagActivityManager, 10123, "", "com.a/.Main", 0},
		{uint8(MsgDenyPermission), TagActivityManager, 10123, "p targeting com.b/.X", "com.a/targeting com.c/.Y ", 0},
		{uint8(MsgDenyProtected), "com.a", 10123, "android.intent.action.BATTERY_LOW", "com.a/com.a.Main", 0},
		{uint8(MsgDispatch), TagActivityManager, 10123, "opaque#part:%d", "zzq", 8},
		{uint8(MsgDispatch), TagActivityManager, 10123, "android.intent.action.MAIN", "com.a/.Main", 64},
		{uint8(MsgDispatch), TagActivityManager, 10123, "", "com.a/.Main", 8 | 64},
		{uint8(MsgRejected), TagActivityManager, 77, "java.lang.IllegalArgumentException: bad, 100%", "com.a/.Main", 32},
		{uint8(MsgRejected), TagActivityManager, 77, "Weird Class: bad", "com.a/.Main", 32},
		{uint8(MsgCaught), "com.a", 77, "java.lang.NullPointerException: x", "", 32},
		{uint8(MsgCaught), "com.a", 77, "java.lang.ArithmeticException", "", 0},
		{uint8(MsgCaught), "com odd,%d", 77, "Caused by: java.lang.A: b", "", 32},
		{uint8(MsgException), TagAndroidRuntime, 77, "java.lang.NullPointerException: root", "", 32},
		{uint8(MsgException), TagAndroidRuntime, 77, "java.lang.IllegalStateException", "", 0},
		{uint8(MsgException), TagAndroidRuntime, 77, "not a class: x", "", 32},
		{uint8(MsgException), TagAndroidRuntime, 77, "caught exception while handling intent: java.lang.A: b", "", 0},
		{uint8(MsgException), TagAndroidRuntime, 77, "\tat com.a.B.c(B.java:1)", "", 0},
		{uint8(MsgCausedBy), TagAndroidRuntime, 77, "java.lang.NullPointerException: Attempt %s", "", 32},
		{uint8(MsgCausedBy), TagAndroidRuntime, 77, "Weird Class: x", "", 32},
		{uint8(MsgCausedBy), "com.a", 77, "java.lang.NullPointerException: x", "", 32},
		{uint8(MsgFrame), TagAndroidRuntime, 77, "Main.java", "com.a.Main/onCreate", 0},
		{uint8(MsgFrame), TagAndroidRuntime, 77, "Main,1.java", "com.odd pkg.Main/on Create%s", 0},
		{uint8(MsgFrame), TagAndroidRuntime, 77, "", "com.b.Main/lambda(1)", 0},
		{uint8(MsgFrame), TagAndroidRuntime, 77, "", "", 0},
		{uint8(MsgFrame), "com.a", 77, "Main.java", "com.a.Main/onCreate", 0},
		{uint8(MsgFatalProcess), TagAndroidRuntime, 77, "com.a", "", 0},
		{uint8(MsgFatalProcess), TagAndroidRuntime, 77, " com.odd pkg,v%d ", "", 0},
		{uint8(MsgDied), TagActivityManager, 77, "com.a", "", 0},
		{uint8(MsgDied), TagActivityManager, 77, "com.odd(pid 1)x", "", 0},
		{uint8(MsgDied), TagActivityManager, 77, "com odd,%d)", "", 0},
		{uint8(MsgDied), TagAndroidRuntime, 77, "com.a", "", 0},
	} {
		f.Add(s.op, s.tag, s.pid, s.text, s.flat, s.bits, true)
		f.Add(s.op, s.tag, s.pid, s.text, s.flat, s.bits, false)
	}
	f.Fuzz(func(t *testing.T, op uint8, tag string, pid int32, text, flat string, bits uint8, primed bool) {
		e, ok := fuzzEntry(op, tag, pid, text, flat, bits)
		if !ok {
			return
		}
		died := amLine(fmt.Sprintf("Process p (pid %d) has died", pid))
		// run decodes e and the death that follows it with d, which first
		// opens a block for the PID when primed.
		run := func(d *Decoder, e *Entry) [2]Event {
			if primed {
				decodeAll(d, runtimeLine(pid, "FATAL EXCEPTION: main"), runtimeLine(pid, "java.lang.IllegalStateException: primed"))
			}
			ev := *d.Decode(e)
			return [2]Event{ev, *d.Decode(&died)}
		}
		var all Decoder
		got := run(&all, &e)

		pe, ok := ParseLine(e.Format(), 2026)
		if !ok || pe.Tag != e.Tag || pe.PID != e.PID || pe.Message != e.Msg() {
			return // text a threadtime dump cannot carry
		}
		var fromDump Decoder
		if d := run(&fromDump, &pe); !reflect.DeepEqual(d, got) {
			t.Fatalf("%q\n live: %+v\n dump: %+v", e.Format(), got, d)
		}
	})
}
