package javalang

import (
	"slices"
	"strings"
	"testing"
)

func TestSimple(t *testing.T) {
	if got := ClassNullPointer.Simple(); got != "NullPointerException" {
		t.Errorf("Simple() = %q", got)
	}
	if got := Class("NoPackage").Simple(); got != "NoPackage" {
		t.Errorf("Simple() = %q", got)
	}
}

func TestErrorString(t *testing.T) {
	e := New(ClassIllegalState, "already started")
	if got, want := e.Error(), "java.lang.IllegalStateException: already started"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
	if got, want := New(ClassNullPointer, "").Error(), "java.lang.NullPointerException"; got != want {
		t.Errorf("Error() = %q, want %q", got, want)
	}
}

func TestNewf(t *testing.T) {
	e := Newf(ClassIllegalArgument, "bad value %d", 7)
	if e.Message != "bad value 7" {
		t.Errorf("Newf message = %q", e.Message)
	}
}

func TestCauseChain(t *testing.T) {
	root := New(ClassNullPointer, "npe")
	mid := New(ClassRuntime, "wrapping").WithCause(root)
	top := New(ClassIllegalState, "cannot deliver").WithCause(mid)

	if got := top.Root(); got != root {
		t.Fatalf("Root() = %v, want the NPE", got)
	}
	var chain []Class
	for cur := top; cur != nil; cur = cur.Cause {
		chain = append(chain, cur.Class)
	}
	if want := []Class{ClassIllegalState, ClassRuntime, ClassNullPointer}; !slices.Equal(chain, want) {
		t.Fatalf("chain = %v, want %v", chain, want)
	}
}

func TestTraceLinesFormat(t *testing.T) {
	root := New(ClassNullPointer, "Attempt to invoke virtual method").
		WithStack(Frame{Class: "com.example.App", Method: "onCreate", File: "App.java", Line: 42})
	top := New(ClassRuntime, "Unable to start activity").WithCause(root).
		WithStack(Frame{Class: "android.app.ActivityThread", Method: "performLaunchActivity", File: "ActivityThread.java", Line: 2817})

	lines := top.TraceLines()
	if len(lines) != 4 {
		t.Fatalf("TraceLines produced %d lines: %v", len(lines), lines)
	}
	if !strings.HasPrefix(lines[0], "java.lang.RuntimeException: Unable to start activity") {
		t.Errorf("line 0 = %q", lines[0])
	}
	if !strings.HasPrefix(lines[1], "\tat android.app.ActivityThread.performLaunchActivity") {
		t.Errorf("line 1 = %q", lines[1])
	}
	if !strings.HasPrefix(lines[2], "Caused by: java.lang.NullPointerException") {
		t.Errorf("line 2 = %q", lines[2])
	}
}

func TestParseHeaderRoundTrip(t *testing.T) {
	for _, c := range []Class{
		ClassNullPointer, ClassIllegalArgument, ClassSecurity,
		ClassDeadObject, ClassActivityNotFound, ClassWindowBadToken,
	} {
		e := New(c, "some message")
		got, msg, ok := ParseHeader(e.Error())
		if !ok {
			t.Fatalf("ParseHeader(%q) not ok", e.Error())
		}
		if got != c {
			t.Errorf("ParseHeader class = %s, want %s", got, c)
		}
		if msg != "some message" {
			t.Errorf("ParseHeader msg = %q", msg)
		}
	}
}

func TestParseHeaderCausedBy(t *testing.T) {
	c, _, ok := ParseHeader("Caused by: java.lang.NullPointerException: boom")
	if !ok || c != ClassNullPointer {
		t.Fatalf("ParseHeader(caused by) = %v %v", c, ok)
	}
}

func TestParseHeaderRejectsNonExceptions(t *testing.T) {
	for _, line := range []string{
		"Sending signal. PID: 1234 SIG: 9",
		"at com.example.App.onCreate(App.java:42)",
		"not a class at all",
		"lowercase.class: message",
		"",
	} {
		if _, _, ok := ParseHeader(line); ok {
			t.Errorf("ParseHeader(%q) unexpectedly ok", line)
		}
	}
}

func TestParseHeaderNoMessage(t *testing.T) {
	c, msg, ok := ParseHeader("java.lang.NullPointerException")
	if !ok || c != ClassNullPointer || msg != "" {
		t.Fatalf("ParseHeader = (%v, %q, %v)", c, msg, ok)
	}
}
