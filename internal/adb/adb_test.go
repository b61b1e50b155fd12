package adb

import (
	"strings"
	"testing"

	"repro/internal/intent"
	"repro/internal/manifest"
	"repro/internal/wearos"
)

func newShell(t *testing.T) (*Shell, *wearos.OS) {
	t.Helper()
	dev := wearos.New(wearos.DefaultEmulatorConfig())
	pkg := &manifest.Package{
		Name:     "com.app.one",
		Category: manifest.NotHealthFitness,
		Origin:   manifest.ThirdParty,
		Components: []*manifest.Component{
			{
				Name: intent.ComponentName{Package: "com.app.one", Class: "com.app.one.ui.Main"},
				Type: manifest.Activity, Exported: true, MainLauncher: true,
			},
			{
				Name: intent.ComponentName{Package: "com.app.one", Class: "com.app.one.svc.Sync"},
				Type: manifest.Service, Exported: true,
			},
		},
	}
	if err := dev.InstallPackage(pkg); err != nil {
		t.Fatal(err)
	}
	return NewShell(dev), dev
}

func TestAmStartExplicit(t *testing.T) {
	sh, _ := newShell(t)
	res := sh.Run("am start -n com.app.one/.ui.Main -a android.intent.action.VIEW -d https://foo.com/")
	if res.ExitCode != 0 {
		t.Fatalf("am failed: %s", res.Output())
	}
	if res.Delivery != wearos.DeliveredNoEffect {
		t.Fatalf("delivery = %v", res.Delivery)
	}
	if !strings.Contains(res.Output(), "Starting: Intent") {
		t.Fatalf("output = %q", res.Output())
	}
}

func TestAmAutoFillsMainLauncher(t *testing.T) {
	// Section IV-D: invoking an activity without action or category makes
	// am set {act=action.MAIN cat=category.LAUNCHER}.
	sh, _ := newShell(t)
	res := sh.Run("am start -n com.app.one/.ui.Main")
	if res.ExitCode != 0 {
		t.Fatalf("am failed: %s", res.Output())
	}
	if res.SentIntent.Action != "android.intent.action.MAIN" {
		t.Fatalf("action = %q", res.SentIntent.Action)
	}
	if !res.SentIntent.HasCategory(intent.CategoryLauncher) {
		t.Fatalf("categories = %v", res.SentIntent.Categories)
	}
}

func TestAmForwardsRandomActionStrings(t *testing.T) {
	// Section IV-D: am does NOT validate action strings; it forwards
	// 'S0me.r@ndom.$trinG' and relies on component validation.
	sh, _ := newShell(t)
	res := sh.Run("am start -n com.app.one/.ui.Main -a 'S0me.r@ndom.$trinG'")
	if res.ExitCode != 0 {
		t.Fatalf("am rejected random action: %s", res.Output())
	}
	if res.SentIntent.Action != "S0me.r@ndom.$trinG" {
		t.Fatalf("action = %q", res.SentIntent.Action)
	}
}

func TestAmStartService(t *testing.T) {
	sh, _ := newShell(t)
	res := sh.Run("am startservice -n com.app.one/.svc.Sync")
	if res.ExitCode != 0 {
		t.Fatalf("am failed: %s", res.Output())
	}
	// Services do not get the MAIN/LAUNCHER auto-fill.
	if res.SentIntent.Action != "" {
		t.Fatalf("service action = %q", res.SentIntent.Action)
	}
}

func TestAmUnknownComponent(t *testing.T) {
	sh, _ := newShell(t)
	res := sh.Run("am start -n com.app.one/.ui.Missing -a android.intent.action.VIEW")
	if res.ExitCode == 0 {
		t.Fatal("am succeeded against missing component")
	}
	if !strings.Contains(res.Output(), "unable to resolve Intent") {
		t.Fatalf("output = %q", res.Output())
	}
}

// TestAmImplicitIntentUnresolved: only explicit intents resolve, so an
// action without -n, even MAIN to a device whose launcher activity is
// installed, fails to resolve.
func TestAmImplicitIntentUnresolved(t *testing.T) {
	sh, _ := newShell(t)
	res := sh.Run("am start -a android.intent.action.MAIN")
	if res.ExitCode != 1 {
		t.Fatalf("exit = %d, want 1: %s", res.ExitCode, res.Output())
	}
	if res.Delivery != wearos.BlockedNotFound {
		t.Fatalf("delivery = %v, want BlockedNotFound", res.Delivery)
	}
	if !strings.Contains(res.Output(), "unable to resolve Intent") {
		t.Fatalf("output = %q", res.Output())
	}
}

func TestAmExtras(t *testing.T) {
	sh, _ := newShell(t)
	res := sh.Run("am start -n com.app.one/.ui.Main --es key1 hello --ei key2 42 --esn key3")
	if res.ExitCode != 0 {
		t.Fatalf("am failed: %s", res.Output())
	}
	ex := res.SentIntent.Extras
	if v, ok := ex.Get("key1"); !ok || v.Str != "hello" {
		t.Fatalf("key1 = %v", v)
	}
	if v, ok := ex.Get("key2"); !ok || v.I64 != 42 {
		t.Fatalf("key2 = %v", v)
	}
	if v, ok := ex.Get("key3"); !ok || v.Kind != intent.KindNull {
		t.Fatalf("key3 = %v", v)
	}
}

func TestAmInvalidValues(t *testing.T) {
	sh, _ := newShell(t)
	for _, cmd := range []string{
		"am start -n notacomponent",
		"am start -n com.app.one/.ui.Main --ei k notanint",
		"am start -n com.app.one/.ui.Main --ef k notafloat",
		"am start -n com.app.one/.ui.Main --ez k notabool",
		"am start",
		"am bogus",
	} {
		if res := sh.Run(cmd); res.ExitCode == 0 {
			t.Errorf("command %q succeeded: %s", cmd, res.Output())
		}
	}
}

func TestPmRejectsUnknownPermission(t *testing.T) {
	// Section IV-D: pm rejects 'S0me.r@ndom.$trinG' saying no such
	// permission exists.
	sh, _ := newShell(t)
	res := sh.Run("pm grant com.app.one 'S0me.r@ndom.$trinG'")
	if res.ExitCode == 0 {
		t.Fatal("pm granted a nonexistent permission")
	}
	if !strings.Contains(res.Output(), "Unknown permission") {
		t.Fatalf("output = %q", res.Output())
	}
	ok := sh.Run("pm grant com.app.one android.permission.BODY_SENSORS")
	if ok.ExitCode != 0 {
		t.Fatalf("pm rejected a real permission: %s", ok.Output())
	}
}

func TestPmUnknownPackage(t *testing.T) {
	sh, _ := newShell(t)
	res := sh.Run("pm grant com.not.installed android.permission.INTERNET")
	if res.ExitCode == 0 || !strings.Contains(res.Output(), "Unknown package") {
		t.Fatalf("res = %+v", res)
	}
}

func TestPmList(t *testing.T) {
	sh, _ := newShell(t)
	res := sh.Run("pm list")
	if !strings.Contains(res.Output(), "package:com.app.one") {
		t.Fatalf("pm list output = %q", res.Output())
	}
	perms := sh.Run("pm list permissions")
	if !strings.Contains(perms.Output(), "android.permission.INTERNET") {
		t.Fatalf("pm list permissions output = %q", perms.Output())
	}
}

func TestInputTapValidation(t *testing.T) {
	sh, _ := newShell(t)
	// The paper's example random event: invalid (out-of-screen) floats are
	// clamped, not fatal.
	if res := sh.Run("input tap -8803.85 4668.17"); res.ExitCode != 0 {
		t.Fatalf("out-of-screen tap rejected: %s", res.Output())
	}
	if res := sh.Run("input tap abc def"); res.ExitCode == 0 {
		t.Fatal("non-numeric tap accepted")
	}
	if res := sh.Run("input tap 10"); res.ExitCode == 0 {
		t.Fatal("tap with one coordinate accepted")
	}
}

func TestInputKeyevent(t *testing.T) {
	sh, _ := newShell(t)
	if res := sh.Run("input keyevent 26"); res.ExitCode != 0 {
		t.Fatalf("numeric keyevent failed: %s", res.Output())
	}
	if res := sh.Run("input keyevent KEYCODE_HOME"); res.ExitCode != 0 {
		t.Fatalf("named keyevent failed: %s", res.Output())
	}
	if res := sh.Run("input keyevent n0tAk3y"); res.ExitCode == 0 {
		t.Fatal("garbage keyevent accepted")
	}
}

// TestUnknownBinary: a tool the shell does not model is not found, logcat
// included (the device's log is pulled with Buffer.Dump, not through adb).
func TestUnknownBinary(t *testing.T) {
	sh, _ := newShell(t)
	for _, cmd := range []string{"rm -rf /", "logcat -d"} {
		if res := sh.Run(cmd); res.ExitCode != 127 {
			t.Fatalf("%q: exit = %d, want 127", cmd, res.ExitCode)
		}
	}
}

func TestTokenizeQuotes(t *testing.T) {
	got := tokenize(`am start -a "two words" -d 'single quoted'`)
	want := []string{"am", "start", "-a", "two words", "-d", "single quoted"}
	if len(got) != len(want) {
		t.Fatalf("tokenize = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("tokenize[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}
