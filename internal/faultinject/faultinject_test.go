package faultinject_test

import (
	"fmt"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faultinject"
	"repro/internal/triage"
	"repro/internal/wearos"
)

func TestNewPlanDeterministic(t *testing.T) {
	a := faultinject.NewPlan(42, 500)
	b := faultinject.NewPlan(42, 500)
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same (seed, budget) produced different plans:\n%+v\n%+v", a, b)
	}
	if len(a.Windows) == 0 {
		t.Fatal("budget 500 produced an empty schedule")
	}
	c := faultinject.NewPlan(43, 500)
	if reflect.DeepEqual(a.Windows, c.Windows) {
		t.Fatal("different seeds produced identical schedules")
	}
}

func TestPlanScheduleShape(t *testing.T) {
	p := faultinject.NewPlan(7, 1000)
	kinds := map[faultinject.Kind]bool{}
	var prevEnd uint64
	for i, w := range p.Windows {
		if w.End <= w.Start {
			t.Fatalf("window %d: end %d <= start %d", i, w.End, w.Start)
		}
		if i > 0 && w.Start <= prevEnd {
			t.Fatalf("window %d overlaps previous (start %d <= prev end %d)", i, w.Start, prevEnd)
		}
		if w.End >= uint64(p.Budget) {
			t.Fatalf("window %d: end %d outruns budget %d", i, w.End, p.Budget)
		}
		kinds[w.Kind] = true
		prevEnd = w.End
	}
	if len(kinds) != len(faultinject.AllKinds) {
		t.Fatalf("budget 1000 covered %d fault kinds, want all %d", len(kinds), len(faultinject.AllKinds))
	}
}

// drive runs the engine over a hand-built plan by walking the dispatch
// sequence directly — the same coordinates the OS hooks would feed it.
func drive(eng *faultinject.Engine, through uint64) {
	for seq := uint64(1); seq <= through; seq++ {
		eng.Pre(seq)
		eng.Post(seq, wearos.DeliveredNoEffect)
	}
	eng.Finish()
}

// TestEngineManifestations pins each fault kind's graded outcome and its
// logcat manifestation on a real device.
func TestEngineManifestations(t *testing.T) {
	cases := []struct {
		kind    faultinject.Kind
		recover bool
		want    string
	}{
		// Prompt binder errors degrade visibly and recover.
		{faultinject.BinderDead, true, faultinject.VerdictDegradedRecovered},
		{faultinject.BinderTooLarge, true, faultinject.VerdictDegradedRecovered},
		// Timeouts and stalls are hang-shaped.
		{faultinject.BinderTimeout, true, faultinject.VerdictStall},
		{faultinject.SensorStall, true, faultinject.VerdictStall},
		// A frozen sensor stream raises no error anywhere: only the
		// freshness oracle catches it.
		{faultinject.SensorStale, true, faultinject.VerdictSilentDrop},
		// A killed service errors until restarted, then comes back.
		{faultinject.ServiceKill, true, faultinject.VerdictDegradedRecovered},
		// Failed storage writes lose the record silently.
		{faultinject.StorageIO, true, faultinject.VerdictSilentDrop},
		// A fault that out-lives its window grades failed-recovery.
		{faultinject.BinderDead, false, faultinject.VerdictFailedRecovery},
	}
	for _, tc := range cases {
		t.Run(fmt.Sprintf("%s/recover=%v", tc.kind, tc.recover), func(t *testing.T) {
			watch := wearos.New(wearos.DefaultWatchConfig())
			col := triage.NewCollector()
			watch.Logcat().Subscribe(col.Sink())
			plan := &faultinject.Plan{Seed: 1, Budget: 20, Windows: []faultinject.Window{
				{Kind: tc.kind, Start: 3, End: 6, Recover: tc.recover},
			}}
			eng := faultinject.NewEngine(watch, plan, "com.example.wear")
			drive(eng, 10)

			vs := eng.Verdicts()
			if len(vs) != 1 {
				t.Fatalf("got %d verdicts, want 1: %+v", len(vs), vs)
			}
			v := vs[0]
			if v.Verdict != tc.want {
				t.Errorf("verdict = %s, want %s (probes %d failed / %d ok)", v.Verdict, tc.want, v.Failed, v.OK)
			}
			if v.Fault != tc.kind.String() || v.Target != tc.kind.Target() || v.App != "com.example.wear" {
				t.Errorf("verdict identity = %+v", v)
			}
			if tc.kind != faultinject.SensorStale && v.Failed == 0 {
				t.Errorf("no probe failed inside a %s window", tc.kind)
			}

			dump := watch.Logcat().Dump()
			openLine := fmt.Sprintf("opening %s fault window", tc.kind)
			if !strings.Contains(dump, openLine) {
				t.Errorf("logcat missing %q", openLine)
			}
			verdictLine := fmt.Sprintf("VERDICT verdict=%s fault=%s", tc.want, tc.kind)
			if !strings.Contains(dump, verdictLine) {
				t.Errorf("logcat missing %q in:\n%s", verdictLine, dump)
			}

			// The VERDICT line must round-trip through triage into a fault
			// record in the same pipeline crashes ride.
			var fault *triage.Crash
			for _, c := range col.Crashes() {
				if c.IsFault() {
					fault = c
				}
			}
			if fault == nil {
				t.Fatal("triage collector captured no fault record")
			}
			if fault.Kind != tc.want || fault.Fault != tc.kind.String() || fault.Process != "com.example.wear" {
				t.Errorf("triage record = kind %s fault %s process %s", fault.Kind, fault.Fault, fault.Process)
			}
		})
	}
}

// TestEngineFollowsSchedule runs a multi-window plan and checks every
// window is graded exactly once, in schedule order.
func TestEngineFollowsSchedule(t *testing.T) {
	watch := wearos.New(wearos.DefaultWatchConfig())
	plan := faultinject.NewPlan(11, 120)
	if len(plan.Windows) < 3 {
		t.Fatalf("schedule too short for the test: %d windows", len(plan.Windows))
	}
	eng := faultinject.NewEngine(watch, plan, "com.example.wear")
	drive(eng, 120)
	vs := eng.Verdicts()
	if len(vs) != len(plan.Windows) {
		t.Fatalf("graded %d windows, want %d", len(vs), len(plan.Windows))
	}
	for i, v := range vs {
		w := plan.Windows[i]
		if v.Fault != w.Kind.String() || v.Start != w.Start || v.End != w.End {
			t.Errorf("verdict %d = %+v, want window %+v", i, v, w)
		}
	}
}
