package vclock

import (
	"testing"
	"time"
)

func TestVirtualStartsAtEpochByDefault(t *testing.T) {
	v := NewVirtual(time.Time{})
	if got := v.Now(); !got.Equal(Epoch) {
		t.Fatalf("Now() = %v, want %v", got, Epoch)
	}
}

func TestVirtualAdvance(t *testing.T) {
	v := NewVirtual(time.Time{})
	start := v.Now()
	v.Advance(150 * time.Millisecond)
	if got, want := v.Now().Sub(start), 150*time.Millisecond; got != want {
		t.Fatalf("advanced %v, want %v", got, want)
	}
}

func TestVirtualNegativeAdvanceIsNoop(t *testing.T) {
	v := NewVirtual(time.Time{})
	start := v.Now()
	v.Advance(-time.Second)
	if !v.Now().Equal(start) {
		t.Fatalf("negative advance moved the clock: %v -> %v", start, v.Now())
	}
}
