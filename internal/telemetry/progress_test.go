package telemetry

import (
	"strings"
	"testing"
	"time"
)

func TestProgressFirstTickPrints(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, time.Hour)
	if !p.Tickf("tick %d", 1) {
		t.Fatal("first Tickf must print even before the interval elapses")
	}
	if p.Tickf("tick %d", 2) {
		t.Fatal("second Tickf inside the interval must be suppressed")
	}
	if got := sb.String(); got != "tick 1\n" {
		t.Fatalf("output = %q", got)
	}
}

func TestProgressNilSafe(t *testing.T) {
	var p *Progress
	if p.Tickf("x") {
		t.Fatal("nil Progress must not print")
	}
	if p.Flush() {
		t.Fatal("nil Progress Flush must not print")
	}
	if p.Elapsed() != 0 {
		t.Fatal("nil Progress Elapsed must be zero")
	}
}

func TestProgressFlushEmitsSwallowedFinalTick(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, time.Hour)
	p.Tickf("tick %d", 1) // prints
	p.Tickf("tick %d", 2) // suppressed
	p.Tickf("tick %d", 3) // suppressed; becomes the pending line
	if !p.Flush() {
		t.Fatal("Flush must print the pending suppressed line")
	}
	if got := sb.String(); got != "tick 1\ntick 3\n" {
		t.Fatalf("output = %q, want the first tick plus the flushed last tick", got)
	}
	if p.Flush() {
		t.Fatal("second Flush must be a no-op")
	}
}

func TestProgressFlushNothingPending(t *testing.T) {
	var sb strings.Builder
	p := NewProgress(&sb, time.Hour)
	p.Tickf("tick") // prints; nothing suppressed after it
	if p.Flush() {
		t.Fatal("Flush with nothing pending must not print")
	}
	if got := sb.String(); got != "tick\n" {
		t.Fatalf("output = %q", got)
	}
}
