package wearos

import (
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
)

// eagerFailureLines are the lines the device rendered eagerly, with fmt and
// Throwable's text methods, for a delivery that failed the way mode says,
// before its failure lines became lazy payloads.
func eagerFailureLines(mode string, proc *Process, comp *manifest.Component, thr *javalang.Throwable) []string {
	switch mode {
	case "crash":
		lines := []string{"FATAL EXCEPTION: main", fmt.Sprintf("Process: %s, PID: %d", proc.Name, proc.PID)}
		lines = append(lines, thr.TraceLines()...)
		return append(lines, fmt.Sprintf("Process %s (pid %d) has died", proc.Name, proc.PID))
	case "reject":
		return []string{"Exception thrown delivering intent to cmp=" + comp.Flat() + ": " + thr.Error()}
	case "catch":
		return []string{"caught exception while handling intent: " + thr.Error()}
	default: // anr
		return append([]string{
			fmt.Sprintf("ANR in %s (%s)", proc.Name, comp.Flat()),
			"Reason: Input dispatching timed out (Waiting to send non-key event because the touched window has not finished processing certain input events)",
		}, thr.TraceLines()...)
	}
}

// TestFailureLinesMatchEagerText pins every failure line a delivery logs —
// a FATAL EXCEPTION block and the death ending it, a rejected or a caught
// exception, an ANR's trace — against the eager text, byte for byte, and
// requires the live entries to decode like their dump lines. The cases
// cover cause chains, empty messages, class names and frames that do not
// parse back from their operands, and '%', ',', blanks and '(' in process
// names, messages and frames.
func TestFailureLinesMatchEagerText(t *testing.T) {
	frame := func(class, method, file string, line int) javalang.Frame {
		return javalang.Frame{Class: class, Method: method, File: file, Line: line}
	}
	chain := javalang.New(javalang.ClassRuntime, "wrapped: 100% of 3, done").
		WithStack(frame("com.a.Main", "onCreate", "Main.java", 12)).
		WithCause(javalang.New(javalang.ClassIllegalState, "").
			WithStack(frame("com.a.Main", "check", "Main.java", 40), frame("android.os.Looper", "loop", "Looper.java", 154)).
			WithCause(javalang.New(javalang.ClassNullPointer, "Attempt to invoke %s on null").
				WithStack(frame("com.a.Main", "root", "Main.java", 7))))
	odd := javalang.New("not a class", "msg, with %d").
		WithStack(frame("com.odd pkg.Main", "on Create%s", "Main,1.java", 42), frame("com.b.Main", "lambda(1)", "", -1), frame("", "", "", 0)).
		WithCause(&javalang.Throwable{Message: "classless"})
	bare := javalang.New(javalang.ClassArithmetic, "")
	caughtText := javalang.New(javalang.ClassIllegalArgument, "caught exception while handling intent: java.lang.Foo: x")

	cases := []struct {
		pkg  string
		mode string
		thr  *javalang.Throwable
	}{
		{"com.a", "crash", chain},
		{"com.a", "crash", bare},
		{"com.odd pkg,v%d", "crash", odd},
		{"com.odd(pid 1)x", "crash", chain},
		{"com.odd(x)", "crash", bare},
		{"com.a", "reject", chain},
		{"com.odd pkg,v%d", "reject", odd},
		{"com.a", "reject", bare},
		{"com.a", "reject", &javalang.Throwable{Message: "classless"}},
		{"com.a", "catch", chain},
		{"com.odd pkg,v%d", "catch", odd},
		{"com.a", "catch", caughtText},
		{"com.a", "anr", chain},
		{"com.odd pkg,v%d", "anr", odd},
	}
	for i, c := range cases {
		name := fmt.Sprintf("case %d (%s %s)", i, c.mode, c.pkg)
		o := New(DefaultWatchConfig())
		comp := &manifest.Component{Name: intent.ComponentName{Package: c.pkg, Class: c.pkg + ".Main"}, Type: manifest.Activity, Exported: true}
		pkg := &manifest.Package{Name: c.pkg, Category: manifest.NotHealthFitness, Origin: manifest.ThirdParty, Components: []*manifest.Component{comp}}
		if err := o.InstallPackage(pkg); err != nil {
			t.Fatal(err)
		}
		out := Outcome{Thrown: c.thr, Rejected: c.mode == "reject", Caught: c.mode == "catch"}
		if c.mode == "anr" {
			out.BusyFor = 2 * anrThreshold
		}
		o.RegisterHandler(comp.Name, func(*intent.Intent) Outcome { return out }, ComponentTraits{})
		mark := o.Logcat().Len()
		o.StartActivity(&intent.Intent{Action: "android.intent.action.VIEW", Component: comp.Name, SenderUID: UIDAppBase + 1})
		entries := o.Logcat().Snapshot()[mark:]

		// The failure lines follow the delivery line.
		at := slices.IndexFunc(entries, func(e logcat.Entry) bool { return e.Payload.Op == logcat.MsgDelivering })
		if at < 0 {
			t.Fatalf("%s: no delivery line in %d entries", name, len(entries))
		}
		proc := o.procs.byName[c.pkg]
		if proc.PID != int(entries[at].Payload.N) {
			t.Fatalf("%s: delivery line names pid %d, the process is %d", name, entries[at].Payload.N, proc.PID)
		}
		want := eagerFailureLines(c.mode, proc, comp, c.thr)
		got := entries[at+1:]
		if len(got) != len(want) {
			t.Fatalf("%s: %d failure lines, want %d", name, len(got), len(want))
		}
		for j := range got {
			if msg := got[j].Msg(); msg != want[j] {
				t.Errorf("%s line %d:\n lazy  %q\n eager %q", name, j, msg, want[j])
			}
			eager := got[j].Payload.Op == logcat.MsgEager
			if wantEager := want[j] == "FATAL EXCEPTION: main" || c.mode == "anr" && j < 2; eager != wantEager {
				t.Errorf("%s line %d %q: eager = %v, want %v", name, j, want[j], eager, wantEager)
			}
		}

		var live, dump logcat.Decoder
		var liveEvs, dumpEvs []logcat.Event
		for j := range entries {
			liveEvs = append(liveEvs, *live.Decode(&entries[j]))
			pe, ok := logcat.ParseLine(entries[j].Format(), 2017)
			if !ok {
				t.Fatalf("%s: dump line %q does not parse", name, entries[j].Format())
			}
			dumpEvs = append(dumpEvs, *dump.Decode(&pe))
		}
		if !reflect.DeepEqual(liveEvs, dumpEvs) {
			t.Errorf("%s:\n live %+v\n dump %+v", name, liveEvs, dumpEvs)
		}
		if c.mode == "crash" && c.thr != odd && !strings.Contains(c.pkg, "(pid ") {
			last := liveEvs[len(liveEvs)-1]
			if last.Kind != logcat.EventFatal || last.PID != proc.PID {
				t.Errorf("%s: the death decodes to %+v, want the block's fatal event", name, last)
			}
			if c.thr == chain && c.pkg == "com.a" {
				want := logcat.Event{Kind: logcat.EventFatal, PID: proc.PID, Proc: "com.a",
					Classes: []string{"java.lang.RuntimeException", "java.lang.IllegalStateException", "java.lang.NullPointerException"},
					Frames:  []string{"com.a.Main.root"}}
				if !reflect.DeepEqual(last, want) {
					t.Errorf("%s: fatal event %+v, want %+v", name, last, want)
				}
			}
		}
	}
}
