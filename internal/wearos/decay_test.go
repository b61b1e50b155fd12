package wearos

import (
	"fmt"
	"math"
	"testing"
	"time"

	"repro/internal/intent"
)

// TestDecayMatchesUnshortcutFormula drives a scripted crash/ANR/idle/reboot
// sequence through a device and checks the wearos_instability gauge and the
// instability timeline bit for bit against the decay formula without the
// zero-instability shortcut, replayed on the same inputs. The script
// starts at zero, decays a score to an exact zero over a long idle, and
// idles there again, so both sides of the shortcut run.
func TestDecayMatchesUnshortcutFormula(t *testing.T) {
	o := testDevice(t)
	s := o.sysSrv
	cfg := s.cfg
	missing := &intent.Intent{Component: cn("com.test.app", "Missing"), SenderUID: UIDAppBase + 1}

	ref, refAt := 0.0, o.clock.Now()
	var refTimeline []InstabilitySample
	decayRef := func() {
		now := o.clock.Now()
		if dt := now.Sub(refAt); dt > 0 {
			refAt = now
			ref *= math.Exp2(-float64(dt) / float64(cfg.HalfLife))
		}
	}
	same := func(step string, got, want float64) {
		t.Helper()
		if math.Float64bits(got) != math.Float64bits(want) {
			t.Fatalf("%s: %v (%#x), unshortcut formula %v (%#x)", step, got, math.Float64bits(got), want, math.Float64bits(want))
		}
	}

	halfLife := cfg.HalfLife
	script := []struct {
		op string
		d  time.Duration
	}{
		{op: "idle", d: time.Second}, {op: "idle", d: halfLife},
		{op: "crash"}, {op: "idle", d: 3 * time.Second}, {op: "anr"}, {op: "crash"},
		{op: "idle", d: halfLife / 3}, {op: "anr"}, {op: "idle", d: 7 * halfLife},
		{op: "crash"}, {op: "idle", d: 2000 * halfLife}, {op: "idle", d: halfLife},
		{op: "anr"}, {op: "idle", d: time.Millisecond}, {op: "reboot"},
		{op: "idle", d: halfLife}, {op: "crash"}, {op: "idle", d: 90 * time.Second},
	}
	decayedToZero := false
	for i, st := range script {
		step := fmt.Sprintf("step %d (%s)", i, st.op)
		switch st.op {
		case "idle":
			// A blocked dispatch refreshes the gauge without aging the device.
			o.clock.Advance(st.d)
			if res := o.StartActivity(missing); res != BlockedNotFound {
				t.Fatalf("%s: dispatch = %v", step, res)
			}
			decayRef()
			same(step+" gauge", o.osm.instability.Value(), ref)
			decayedToZero = decayedToZero || ref == 0 && len(refTimeline) > 0
		case "crash", "anr":
			// A fresh process name every time: no repeat-window discount.
			proc, w := fmt.Sprintf("com.p%d", i), cfg.CrashWeight
			if st.op == "crash" {
				s.RecordAppCrash(proc, false)
			} else {
				w = cfg.ANRWeight
				s.RecordANR(proc, false)
			}
			decayRef()
			ref += w
			refTimeline = append(refTimeline, InstabilitySample{At: o.clock.Now(), Value: ref})
		case "reboot":
			ref, refAt, refTimeline = 0, o.clock.Now(), nil
			o.reboot("scripted")
		}
	}
	if !decayedToZero {
		t.Fatal("no score decayed to an exact zero: the script misses the shortcut after a failure")
	}
	got := s.InstabilityTimeline()
	if len(got) != len(refTimeline) {
		t.Fatalf("timeline has %d samples, want %d", len(got), len(refTimeline))
	}
	for i := range got {
		if !got[i].At.Equal(refTimeline[i].At) {
			t.Fatalf("sample %d at %v, want %v", i, got[i].At, refTimeline[i].At)
		}
		same(fmt.Sprintf("sample %d", i), got[i].Value, refTimeline[i].Value)
	}
}
