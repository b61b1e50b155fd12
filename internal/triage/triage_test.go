package triage

import (
	"testing"

	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/telemetry"
)

func crash(class, frame string) *Crash {
	return &Crash{Classes: []string{class}, Frames: []string{frame}}
}

func TestBucketizeStackHash(t *testing.T) {
	npe := "java.lang.NullPointerException"
	ise := "java.lang.IllegalStateException"
	frameA := "com.app.Main.onCreate"
	frameB := "com.app.Sync.push"

	cases := []struct {
		name    string
		crashes []*Crash
		unique  int
		// topCount is the count of the most frequent bucket.
		topCount int
	}{
		{
			name: "same root frame collapses regardless of message or process",
			crashes: []*Crash{
				{Process: "com.app", Classes: []string{npe}, Frames: []string{frameA, frameB}},
				{Process: "com.app:remote", Classes: []string{npe}, Frames: []string{frameA}},
				{Process: "com.other", Classes: []string{npe}, Frames: []string{frameA, "x.Y.z"}},
			},
			unique:   1,
			topCount: 3,
		},
		{
			name: "wrapper exceptions do not split buckets",
			crashes: []*Crash{
				{Classes: []string{"java.lang.RuntimeException", npe}, Frames: []string{frameA}},
				{Classes: []string{npe}, Frames: []string{frameA}},
			},
			unique:   1,
			topCount: 2,
		},
		{
			name:     "different root frame splits",
			crashes:  []*Crash{crash(npe, frameA), crash(npe, frameB)},
			unique:   2,
			topCount: 1,
		},
		{
			name:     "different root class splits",
			crashes:  []*Crash{crash(npe, frameA), crash(ise, frameA)},
			unique:   2,
			topCount: 1,
		},
		{
			name:     "empty input",
			crashes:  nil,
			unique:   0,
			topCount: 0,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := Bucketize(tc.crashes)
			if res.Crashes != len(tc.crashes) {
				t.Fatalf("Crashes = %d, want %d", res.Crashes, len(tc.crashes))
			}
			if res.Unique() != tc.unique {
				t.Fatalf("Unique = %d, want %d", res.Unique(), tc.unique)
			}
			if tc.unique > 0 && res.Buckets[0].Count != tc.topCount {
				t.Fatalf("top bucket count = %d, want %d", res.Buckets[0].Count, tc.topCount)
			}
		})
	}
}

func TestBucketizeOrderAndExemplar(t *testing.T) {
	withIntent := crash("java.lang.NullPointerException", "a.B.c")
	withIntent.Intent = &intent.Intent{Action: "android.intent.action.VIEW"}
	crashes := []*Crash{
		crash("java.lang.NullPointerException", "a.B.c"), // no intent
		withIntent, // same bucket, carries a reproducer
		crash("z.util.ZException", "z.Z.z"),
		crash("a.util.AException", "a.A.a"),
	}
	res := Bucketize(crashes)
	if res.Unique() != 3 {
		t.Fatalf("Unique = %d, want 3", res.Unique())
	}
	// Most frequent first; ties break by class name.
	if res.Buckets[0].Count != 2 || res.Buckets[0].Class != "java.lang.NullPointerException" {
		t.Fatalf("bucket 0 = %+v", res.Buckets[0])
	}
	if res.Buckets[1].Class != "a.util.AException" || res.Buckets[2].Class != "z.util.ZException" {
		t.Fatalf("tie-break order wrong: %q then %q", res.Buckets[1].Class, res.Buckets[2].Class)
	}
	// The exemplar upgrades to the first crash carrying a reproducer intent.
	if res.Buckets[0].Exemplar != withIntent {
		t.Fatal("exemplar must prefer a crash with a reproducer intent")
	}
}

// entries builds a synthetic FATAL EXCEPTION block the way
// wearos.crashProcess emits it, followed by the ActivityManager death line.
func crashEntries(pid int, process string, trace []string) []logcat.Entry {
	lines := append([]string{
		"FATAL EXCEPTION: main",
		"Process: " + process + ", PID: 3",
	}, trace...)
	var out []logcat.Entry
	for _, l := range lines {
		out = append(out, logcat.Entry{PID: int32(pid), Level: logcat.Error, Tag: logcat.TagAndroidRuntime, Message: l})
	}
	out = append(out, logcat.Entry{PID: 1000, Level: logcat.Info, Tag: logcat.TagActivityManager,
		Message: "Process " + process + " (pid " + itoa(pid) + ") has died"})
	return out
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b []byte
	for n > 0 {
		b = append([]byte{byte('0' + n%10)}, b...)
		n /= 10
	}
	return string(b)
}

func TestCollectorReassemblesCausedByChain(t *testing.T) {
	c := NewCollector()
	c.ConsumeAll(crashEntries(42, "com.app", []string{
		"java.lang.RuntimeException: Unable to start activity",
		"\tat android.app.ActivityThread.performLaunchActivity(ActivityThread.java:2817)",
		"Caused by: java.lang.NullPointerException: uri must not be null",
		"\tat com.app.Main.onCreate(Main.java:51)",
		"\tat android.app.Activity.performCreate(Activity.java:6679)",
	}))
	got := c.Crashes()
	if len(got) != 1 {
		t.Fatalf("crashes = %d, want 1", len(got))
	}
	cr := got[0]
	if cr.Process != "com.app" {
		t.Fatalf("process = %q", cr.Process)
	}
	if cr.RootClass() != "java.lang.NullPointerException" {
		t.Fatalf("root class = %q", cr.RootClass())
	}
	// Frames belong to the root-cause section only, normalized.
	if cr.RootFrame() != "com.app.Main.onCreate" {
		t.Fatalf("root frame = %q", cr.RootFrame())
	}
	if len(cr.Frames) != 2 || cr.Frames[1] != "android.app.Activity.performCreate" {
		t.Fatalf("frames = %v", cr.Frames)
	}
}

func TestCollectorInterleavedPIDsAndAttachIntent(t *testing.T) {
	c := NewCollector()
	a := crashEntries(10, "com.a", []string{
		"java.lang.NullPointerException: x",
		"\tat com.a.A.run(A.java:1)",
	})
	b := crashEntries(20, "com.b", []string{
		"java.lang.IllegalStateException: y",
		"\tat com.b.B.run(B.java:2)",
	})
	// Interleave the two blocks: runtime lines of both, then both deaths.
	var mixed []logcat.Entry
	for i := 0; i < len(a)-1; i++ {
		mixed = append(mixed, a[i], b[i])
	}
	mixed = append(mixed, a[len(a)-1]) // com.a dies first
	c.ConsumeAll(mixed)

	in := &intent.Intent{Action: "android.intent.action.MAIN"}
	if !c.AttachIntent(in) {
		t.Fatal("AttachIntent must pair with the finalized com.a crash")
	}
	// A second attach before the next crash finalizes must not overwrite
	// the existing pairing.
	if c.AttachIntent(&intent.Intent{Action: "other"}) {
		t.Fatal("AttachIntent must refuse when the last record already has an intent")
	}
	c.ConsumeAll(b[len(b)-1:]) // com.b dies

	got := c.Crashes()
	if len(got) != 2 {
		t.Fatalf("crashes = %d, want 2", len(got))
	}
	if got[0].Process != "com.a" || got[0].Intent == nil || got[0].Intent.Action != in.Action {
		t.Fatalf("crash 0 = %+v", got[0])
	}
	if got[0].Intent == in {
		t.Fatal("AttachIntent must clone, not alias, the injected intent")
	}
	if got[1].Process != "com.b" || got[1].Intent != nil {
		t.Fatalf("crash 1 = %+v", got[1])
	}
}

func TestCollectorANRRecords(t *testing.T) {
	c := NewCollector()
	// The two lines wearos.settle emits for an ANR, followed by an
	// unrelated crash so ordering of c.last is exercised.
	c.Consume(logcat.Entry{PID: 1000, Level: logcat.Error, Tag: logcat.TagActivityManager,
		Message: "ANR in com.app (com.app/com.app.Main)"})
	c.Consume(logcat.Entry{PID: 1000, Level: logcat.Error, Tag: logcat.TagActivityManager,
		Message: "Reason: Input dispatching timed out (Waiting to send non-key event because the touched window has not finished processing certain input events)"})

	in := &intent.Intent{Action: "android.intent.action.VIEW"}
	if !c.AttachIntent(in) {
		t.Fatal("AttachIntent must pair with the finalized ANR record")
	}
	if !c.AttachFlight("A/com.app", []telemetry.Event{{Seq: 1, Kind: telemetry.EventVerdict, Detail: "anr"}}) {
		t.Fatal("AttachFlight must pair with the finalized ANR record")
	}
	if c.AttachFlight("A/com.app", []telemetry.Event{{Seq: 2}}) {
		t.Fatal("AttachFlight must refuse when the last record already has a window")
	}

	c.ConsumeAll(crashEntries(10, "com.app", []string{
		"java.lang.NullPointerException: x",
		"\tat com.app.A.run(A.java:1)",
	}))

	got := c.Crashes()
	if len(got) != 2 {
		t.Fatalf("records = %d, want ANR + crash", len(got))
	}
	anr := got[0]
	if !anr.IsANR() || anr.Process != "com.app" || anr.Component != "com.app/com.app.Main" {
		t.Fatalf("ANR record = %+v", anr)
	}
	if anr.Intent == nil || anr.Trace != "A/com.app" || len(anr.Flight) != 1 {
		t.Fatalf("ANR record missing attachments: %+v", anr)
	}
	if got[1].IsANR() {
		t.Fatalf("crash record mis-kinded: %+v", got[1])
	}
	if anr.Hash() == got[1].Hash() {
		t.Fatal("ANR and crash must not share a bucket")
	}

	res := Bucketize(got)
	if res.Crashes != 2 || res.ANRs != 1 || res.Unique() != 2 {
		t.Fatalf("result = %+v", res)
	}
	for _, b := range res.Buckets {
		if b.Kind == KindANR {
			if b.Class != "ANR" || b.Frame != "com.app/com.app.Main" {
				t.Fatalf("ANR bucket signature = %q/%q", b.Class, b.Frame)
			}
		}
	}
}

func TestCollectorIgnoresDeathWithoutBlock(t *testing.T) {
	c := NewCollector()
	c.Consume(logcat.Entry{PID: 1000, Tag: logcat.TagActivityManager,
		Message: "Process com.idle (pid 77) has died"})
	if len(c.Crashes()) != 0 {
		t.Fatal("a death without a FATAL EXCEPTION block is not a crash record")
	}
}

func TestMinimizeConvergesOnKnownCrash(t *testing.T) {
	// The crash reproduces iff action == "X" and extra "k" is present;
	// everything else is removable junk.
	in := &intent.Intent{
		Action:     "X",
		Type:       "text/plain",
		Categories: []string{"android.intent.category.DEFAULT"},
		Data:       intent.URI{Scheme: "content", Host: "junk"},
		Component:  intent.ComponentName{Package: "com.app", Class: "com.app.Main"},
	}
	in.PutExtra("junk1", intent.StringValue("a"))
	in.PutExtra("k", intent.StringValue("trigger"))
	in.PutExtra("junk2", intent.StringValue("b"))

	oracle := func(cand *intent.Intent) bool {
		_, hasK := cand.Extras.Get("k")
		return cand.Action == "X" && hasK
	}
	min, trials := Minimize(in, oracle)
	if min == nil {
		t.Fatal("minimizer lost a reproducing intent")
	}
	if !oracle(min) {
		t.Fatalf("minimized intent does not reproduce: %v", min)
	}
	if got := min.Extras.Keys(); len(got) != 1 || got[0] != "k" {
		t.Fatalf("extras after minimization = %v, want [k]", got)
	}
	if min.Type != "" || len(min.Categories) != 0 || !min.Data.IsZero() {
		t.Fatalf("removable fields survived: %+v", min)
	}
	if min.Action != "X" {
		t.Fatalf("load-bearing action dropped: %q", min.Action)
	}
	if min.Component != in.Component {
		t.Fatal("component must never be dropped")
	}
	// Greedy over ≤8 removable elements across ≤4 passes stays small.
	if trials < 2 || trials > 40 {
		t.Fatalf("trials = %d, outside sane bounds", trials)
	}
	// The input intent must be untouched.
	if got := in.Extras.Keys(); len(got) != 3 {
		t.Fatalf("input intent mutated: extras = %v", got)
	}
}

func TestMinimizeNonReproducing(t *testing.T) {
	in := &intent.Intent{Action: "X"}
	min, trials := Minimize(in, func(*intent.Intent) bool { return false })
	if min != nil {
		t.Fatal("a non-reproducing intent must minimize to nil")
	}
	if trials != 1 {
		t.Fatalf("trials = %d, want exactly the initial check", trials)
	}
}

func TestMinimizeBareIntentStaysBare(t *testing.T) {
	in := &intent.Intent{Component: intent.ComponentName{Package: "p", Class: "p.C"}}
	min, _ := Minimize(in, func(cand *intent.Intent) bool { return true })
	if min == nil || min.Component != in.Component {
		t.Fatalf("min = %+v", min)
	}
	if min.Action != "" || len(min.Extras.Keys()) != 0 {
		t.Fatalf("bare intent grew fields: %+v", min)
	}
}
