package analysis

import (
	"testing"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
)

// These tests feed hand-crafted log streams straight into the collector to
// cover parser edge cases the end-to-end tests rarely hit.

func entry(tag, msg string, at time.Duration) logcat.Entry {
	e := logcat.Entry{PID: 1000, TID: 1000, Level: logcat.Info, Tag: tag, Message: msg}
	e.SetTime(time.Unix(0, 0).Add(at))
	return e
}

func appEntry(pid int32, tag, msg string, at time.Duration) logcat.Entry {
	e := logcat.Entry{PID: pid, TID: pid, Level: logcat.Warn, Tag: tag, Message: msg}
	e.SetTime(time.Unix(0, 0).Add(at))
	return e
}

func TestCollectorIgnoresMalformedAMEntries(t *testing.T) {
	col := NewCollector()
	for _, msg := range []string{
		"Delivering to activity",                                           // no cmp
		"Delivering to activity cmp=no-slash pid=12",                       // bad component
		"Delivering to activity cmp=com.a/.B pid=xyz",                      // bad pid
		"Delivering to activity cmp=com.a/.B",                              // no pid
		"Exception thrown delivering intent to cmp=com.a/.B",               // no header
		"Exception thrown delivering intent to cmp=nope: java.lang.X: y",   // bad component
		"Exception thrown delivering intent to cmp=com.a/.B: notaclass: z", // bad header
		"ANR in proc",                  // no component
		"ANR in proc (badflat)",        // bad component
		"Process x has died",           // no pid
		"Process x (pid abc) has died", // bad pid
		"Process x (pid 7777 has died", // unterminated
		"java.lang.SecurityException: Permission Denial targeting nope", // bad component
	} {
		col.Consume(entry(logcat.TagActivityManager, msg, 0))
	}
	rep := col.Report()
	if len(rep.Components) != 0 {
		t.Fatalf("malformed entries created components: %v", rep.ComponentNames())
	}
	if rep.Entries != 13 {
		t.Fatalf("entries counted = %d", rep.Entries)
	}
}

func TestCollectorCrashBlockWithoutDelivery(t *testing.T) {
	// A FATAL EXCEPTION whose PID was never seen in a Delivering entry
	// cannot be attributed; the collector must not panic or invent data.
	col := NewCollector()
	col.Consume(logcat.Entry{PID: 555, Tag: logcat.TagAndroidRuntime, Level: logcat.Error, Message: "FATAL EXCEPTION: main"})
	col.Consume(logcat.Entry{PID: 555, Tag: logcat.TagAndroidRuntime, Level: logcat.Error, Message: "java.lang.NullPointerException: x"})
	col.Consume(entry(logcat.TagActivityManager, "Process ghost (pid 555) has died", 0))
	if got := len(col.Report().Components); got != 0 {
		t.Fatalf("unattributable crash created %d components", got)
	}
	if col.Report().CrashEvents != 0 {
		t.Fatal("unattributable crash counted")
	}
}

func TestCollectorRuntimeLinesWithoutBlock(t *testing.T) {
	// AndroidRuntime lines arriving without a FATAL header are ignored.
	col := NewCollector()
	col.Consume(logcat.Entry{PID: 7, Tag: logcat.TagAndroidRuntime, Message: "java.lang.NullPointerException: stray"})
	if len(col.Report().Components) != 0 {
		t.Fatal("stray runtime line created a component")
	}
}

func TestCollectorANRTraceWindowExpires(t *testing.T) {
	col := NewCollector()
	col.Consume(entry(logcat.TagActivityManager, "Delivering to service cmp=com.a/.S pid=42", 0))
	col.Consume(entry(logcat.TagActivityManager, "ANR in com.a (com.a/.S)", time.Second))
	// Trace arrives too late: outside the association window.
	col.Consume(appEntry(42, "com.a", "java.lang.IllegalStateException: late", 10*time.Second))
	cr := col.Report().Components[mustCN(t, "com.a/.S")]
	if cr.ANRs != 1 {
		t.Fatalf("ANRs = %d", cr.ANRs)
	}
	if len(cr.ANRClasses) != 0 {
		t.Fatalf("late trace associated: %v", cr.ANRClasses)
	}
}

func TestCollectorNativeSignalParsing(t *testing.T) {
	col := NewCollector()
	col.Consume(entry(logcat.TagDEBUG, "Fatal signal SIGABRT in tid 99 (sensorservice), process /system/lib/libsensorservice.so", 0))
	col.Consume(entry(logcat.TagDEBUG, "Fatal signal SIGSEGV in system_server (pid 1000)", 0))
	col.Consume(entry(logcat.TagDEBUG, "not a signal line", 0))
	col.Consume(entry(logcat.TagDEBUG, "Fatal signal SIGKILL in tid 1 (other_process)", 0))
	rep := col.Report()
	if len(rep.CoreServiceDeaths) != 2 {
		t.Fatalf("deaths = %v", rep.CoreServiceDeaths)
	}
	if rep.CoreServiceDeaths[0] != "sensorservice "+javalang.SIGABRT ||
		rep.CoreServiceDeaths[1] != "system_server "+javalang.SIGSEGV {
		t.Fatalf("deaths = %v", rep.CoreServiceDeaths)
	}
}

func TestCollectorRebootFallbackAttribution(t *testing.T) {
	// No escalation anchor in the log: the reboot is attributed to every
	// recent failure in the window.
	col := NewCollector()
	col.Consume(entry(logcat.TagActivityManager, "Delivering to activity cmp=com.a/.X pid=10", 0))
	col.Consume(entry(logcat.TagActivityManager, "ANR in com.a (com.a/.X)", time.Second))
	col.Consume(entry(logcat.TagSystemServer, "!!! REBOOTING: test !!!", 2*time.Second))
	cr := col.Report().Components[mustCN(t, "com.a/.X")]
	if cr == nil || !cr.RebootInvolved {
		t.Fatal("fallback attribution failed")
	}
}

func TestCollectorBlameWindowExpiry(t *testing.T) {
	// An escalation anchor far in the past must not anchor a much later
	// reboot; fallback attribution applies instead.
	col := NewCollector()
	col.Consume(entry(logcat.TagWatchdog,
		"Blocked in handler on sensor thread (client com.old unresponsive); sending SIGABRT to sensorservice", 0))
	col.Consume(entry(logcat.TagActivityManager, "Delivering to activity cmp=com.b/.Y pid=11", 9*time.Minute))
	col.Consume(entry(logcat.TagActivityManager, "ANR in com.b (com.b/.Y)", 9*time.Minute))
	col.Consume(entry(logcat.TagSystemServer, "!!! REBOOTING: later !!!", 10*time.Minute))
	rep := col.Report()
	if cr := rep.Components[mustCN(t, "com.b/.Y")]; cr == nil || !cr.RebootInvolved {
		t.Fatal("stale anchor suppressed fallback attribution")
	}
}

func TestCollectorWatchdogMalformed(t *testing.T) {
	col := NewCollector()
	col.Consume(entry(logcat.TagWatchdog, "Blocked in handler with no client marker", 0))
	col.Consume(entry(logcat.TagWatchdog, "(client only-open", 0))
	// Nothing to assert beyond "no panic, no components".
	if len(col.Report().Components) != 0 {
		t.Fatal("malformed watchdog lines created components")
	}
}

func TestCollectorAmbientAnchorAttribution(t *testing.T) {
	col := NewCollector()
	col.Consume(entry(logcat.TagActivityManager, "Delivering to activity cmp=com.c/.Amb pid=12", 0))
	col.Consume(entry(logcat.TagActivityManager, "Delivering to activity cmp=com.c/.Other pid=13", time.Second))
	col.Consume(entry(logcat.TagActivityManager, "ANR in com.c (com.c/.Other)", 2*time.Second))
	col.Consume(entry(logcat.TagSystemServer,
		"unable to bind AmbientService for com.c/.Amb after repeated start failures", 3*time.Second))
	col.Consume(entry(logcat.TagSystemServer, "!!! REBOOTING: x !!!", 4*time.Second))
	rep := col.Report()
	// Anchored attribution: only the named component is blamed, not the
	// other recent failure.
	if cr := rep.Components[mustCN(t, "com.c/.Amb")]; cr == nil || !cr.RebootInvolved {
		t.Fatal("anchored component not blamed")
	}
	if cr := rep.Components[mustCN(t, "com.c/.Other")]; cr != nil && cr.RebootInvolved {
		t.Fatal("anchored attribution leaked to unrelated component")
	}
}

func TestCollectorCaughtWithoutMapping(t *testing.T) {
	col := NewCollector()
	col.Consume(appEntry(99, "com.a", "caught exception while handling intent: java.lang.IllegalArgumentException: x", 0))
	if len(col.Report().Components) != 0 {
		t.Fatal("caught line without pid mapping created a component")
	}
}

func mustCN(t *testing.T, flat string) intent.ComponentName {
	t.Helper()
	c, ok := intent.UnflattenComponent(flat)
	if !ok {
		t.Fatalf("bad flat %q", flat)
	}
	return c
}

func TestCollectorDeliveryAfterRebootReusingPID(t *testing.T) {
	// A reboot forgets every PID mapping; a delivery that repeats the last
	// pre-reboot (PID, component) pair must map it again, or the crash that
	// follows goes unattributed.
	col := NewCollector()
	deliver := entry(logcat.TagActivityManager, "Delivering to activity cmp=com.a/.B pid=7", 0)
	col.Consume(deliver)
	col.Consume(entry(logcat.TagSystemServer, "!!! REBOOTING: test !!!", time.Second))
	col.Consume(deliver)
	col.Consume(logcat.Entry{PID: 7, Tag: logcat.TagAndroidRuntime, Level: logcat.Error, Message: "FATAL EXCEPTION: main"})
	col.Consume(logcat.Entry{PID: 7, Tag: logcat.TagAndroidRuntime, Level: logcat.Error, Message: "java.lang.NullPointerException: x"})
	col.Consume(entry(logcat.TagActivityManager, "Process com.a (pid 7) has died", 2*time.Second))
	cr := col.Report().Components[mustCN(t, "com.a/.B")]
	if cr == nil || cr.CrashRoots[javalang.ClassNullPointer] != 1 {
		t.Fatalf("post-reboot crash not attributed: %+v", cr)
	}
}
