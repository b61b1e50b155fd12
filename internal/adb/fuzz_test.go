package adb

import (
	"reflect"
	"strings"
	"testing"

	"repro/internal/wearos"
)

// shellSeeds are command lines of every shape the shell parses, QGJ-UI's
// replays among them; the logcat lines take the unknown-tool path.
var shellSeeds = []string{
	"am start -n com.app.one/.ui.Main",
	"am start -a 'S0me.r@ndom.$trinG' -n com.app.one/.ui.Main",
	"am startservice -n com.app.one/.svc.Sync --esn key",
	"input tap -8803.85 4668.17",
	"input keyevent KEYCODE_HOME",
	"pm grant com.app.one android.permission.BODY_SENSORS",
	"pm list permissions",
	"logcat -d -s ActivityManager",
	"logcat ActivityManager:W *:E",
	"am",
	"am start",
	"am start --ei k",
	"input",
	"",
	"     ",
	`am start -a "two words"`,
	"rm -rf /",
	"am start -n x -d ::::",
}

// FuzzShellRun asserts the shell never panics on arbitrary command lines —
// QGJ-UI's random mode feeds it exactly this kind of garbage — and that it
// always returns a structured Result.
func FuzzShellRun(f *testing.F) {
	for _, seed := range shellSeeds {
		f.Add(seed)
	}
	dev := wearos.New(wearos.DefaultEmulatorConfig())
	sh := NewShell(dev)
	f.Fuzz(func(t *testing.T, cmd string) {
		res := sh.Run(cmd)
		if res.ExitCode < 0 || res.ExitCode > 255 {
			t.Fatalf("exit code out of range: %d for %q", res.ExitCode, cmd)
		}
		// A dispatched intent must always come with a delivery result.
		if res.SentIntent != nil && res.Delivery == 0 {
			t.Fatalf("sent intent without delivery result for %q", cmd)
		}
		res.Output()
	})
}

// FuzzTokenize checks tokenize, whose quote-free ASCII lines split into
// substrings, against the quoting rune loop every line once took.
func FuzzTokenize(f *testing.F) {
	for _, seed := range shellSeeds {
		f.Add(seed)
	}
	for _, seed := range []string{
		"am start -a 'it''s' -n com.app.one/.ui.Main",
		`am start -a "say \"hi\"" -d 'a"b'`,
		"'' \"\" x",
		"input\ttap 1 2",
		"\t am \t",
		"am start -a \xff\xfe -n com.app.one/.ui.Main",
		"am start -a café",
		"a\x80b c",
		"  many   spaces  ",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, line string) {
		if got, want := tokenize(line), referenceTokenize(line); !reflect.DeepEqual(got, want) {
			t.Fatalf("tokenize(%q) = %q, want %q", line, got, want)
		}
	})
}

// referenceTokenize is the quoting tokenizer: split on spaces outside
// quotes, drop the quotes, copy each token rune by rune.
func referenceTokenize(s string) []string {
	var out []string
	var cur strings.Builder
	inSingle, inDouble := false, false
	flush := func() {
		if cur.Len() > 0 {
			out = append(out, cur.String())
			cur.Reset()
		}
	}
	for _, r := range s {
		switch {
		case r == '\'' && !inDouble:
			inSingle = !inSingle
		case r == '"' && !inSingle:
			inDouble = !inDouble
		case r == ' ' && !inSingle && !inDouble:
			flush()
		default:
			cur.WriteRune(r)
		}
	}
	flush()
	return out
}
