package wearos

import (
	"reflect"
	"testing"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
	"repro/internal/manifest"
)

// eagerDenial is the line the gate rendered eagerly, with fmt, before its
// denials became lazy payloads; the lazy lines must match it byte for byte.
func eagerDenial(reason string, in *intent.Intent, comp *manifest.Component, kind manifest.ComponentType) string {
	switch reason {
	case "protected":
		return javalang.Newf(javalang.ClassSecurity,
			"Permission Denial: not allowed to send broadcast %s from pid=?, uid=%d", in.Action, in.SenderUID).Error() +
			" targeting " + in.Component.FlattenToString()
	case "not-found":
		if kind == manifest.Activity {
			return javalang.Newf(javalang.ClassActivityNotFound,
				"Unable to find explicit activity class %s; have you declared this activity in your AndroidManifest.xml?",
				in.Component.FlattenToString()).Error()
		}
		return "Unable to start service " + in.Component.FlattenToString() + ": not found"
	case "not-exported":
		return javalang.Newf(javalang.ClassSecurity,
			"Permission Denial: %s not exported from uid %d", comp.Flat(), in.SenderUID).Error() + " targeting " + comp.Flat()
	default: // needs-permission
		return javalang.Newf(javalang.ClassSecurity,
			"Permission Denial: starting %s requires %s", comp.Flat(), comp.Permission).Error() + " targeting " + comp.Flat()
	}
}

// TestGateDenialLinesMatchEagerText pins every gate denial's lazily rendered
// line against the eager text, including components whose flat form does
// not parse back (an empty class, a class starting with '.', no component
// at all), and requires the live entry to decode like its dump line.
func TestGateDenialLinesMatchEagerText(t *testing.T) {
	o := testDevice(t)
	odd := &manifest.Package{
		Name: "com.odd", Category: manifest.NotHealthFitness, Origin: manifest.ThirdParty,
		Components: []*manifest.Component{
			{Name: intent.ComponentName{Package: "com.odd", Class: ".Hidden"}, Type: manifest.Activity},
			{Name: intent.ComponentName{Package: "com.odd", Class: ""}, Type: manifest.Service, Exported: true,
				Permission: "android.permission.BODY_SENSORS"},
		},
	}
	if err := o.InstallPackage(odd); err != nil {
		t.Fatal(err)
	}
	const battery = "android.intent.action.BATTERY_LOW"
	cases := []struct {
		reason string
		kind   manifest.ComponentType
		comp   intent.ComponentName
		action string
		line   string // the exact text, when spelled out
		want   logcat.Event
	}{
		{reason: "protected", kind: manifest.Activity, comp: cn("com.test.app", "MainActivity"), action: battery,
			line: "java.lang.SecurityException: Permission Denial: not allowed to send broadcast android.intent.action.BATTERY_LOW from pid=?, uid=10100 targeting com.test.app/.MainActivity",
			want: logcat.Event{Kind: logcat.EventDenial, Comp: cn("com.test.app", "MainActivity")}},
		{reason: "protected", kind: manifest.Service, action: battery, want: logcat.Event{}},
		{reason: "protected", kind: manifest.Activity, comp: intent.ComponentName{Package: "com.odd", Class: ".Main"}, action: battery,
			want: logcat.Event{Kind: logcat.EventDenial, Comp: intent.ComponentName{Package: "com.odd", Class: "com.odd.Main"}}},
		{reason: "protected", kind: manifest.Activity, comp: intent.ComponentName{Package: "com.odd"}, action: battery, want: logcat.Event{}},
		{reason: "not-found", kind: manifest.Activity, comp: cn("com.test.app", "Missing"),
			line: "android.content.ActivityNotFoundException: Unable to find explicit activity class com.test.app/.Missing; have you declared this activity in your AndroidManifest.xml?"},
		{reason: "not-found", kind: manifest.Service, comp: cn("com.test.app", "Missing"),
			line: "Unable to start service com.test.app/.Missing: not found"},
		{reason: "not-found", kind: manifest.Activity, comp: intent.ComponentName{Package: "com.test.app"}},
		{reason: "not-found", kind: manifest.Service, comp: intent.ComponentName{Package: "com.test.app", Class: ".Gone"}},
		{reason: "not-exported", kind: manifest.Service, comp: cn("com.test.app", "Private"),
			line: "java.lang.SecurityException: Permission Denial: com.test.app/.Private not exported from uid 10100 targeting com.test.app/.Private",
			want: logcat.Event{Kind: logcat.EventDenial, Comp: cn("com.test.app", "Private")}},
		{reason: "not-exported", kind: manifest.Activity, comp: intent.ComponentName{Package: "com.odd", Class: ".Hidden"},
			want: logcat.Event{Kind: logcat.EventDenial, Comp: intent.ComponentName{Package: "com.odd", Class: "com.odd.Hidden"}}},
		{reason: "needs-permission", kind: manifest.Activity, comp: cn("com.test.app", "Guarded"),
			line: "java.lang.SecurityException: Permission Denial: starting com.test.app/.Guarded requires android.permission.BODY_SENSORS targeting com.test.app/.Guarded",
			want: logcat.Event{Kind: logcat.EventDenial, Comp: cn("com.test.app", "Guarded")}},
		{reason: "needs-permission", kind: manifest.Service, comp: intent.ComponentName{Package: "com.odd"}, want: logcat.Event{}},
	}
	for _, c := range cases {
		in := &intent.Intent{Action: c.action, Component: c.comp, SenderUID: UIDAppBase + 100}
		var res DeliveryResult
		if c.kind == manifest.Service {
			res = o.StartService(in)
		} else {
			res = o.StartActivity(in)
		}
		wantRes := BlockedSecurity
		if c.reason == "not-found" {
			wantRes = BlockedNotFound
		}
		if res != wantRes {
			t.Fatalf("%s %v: result = %v, want %v", c.reason, c.comp, res, wantRes)
		}
		snap := o.Logcat().Snapshot()
		e := snap[len(snap)-1]
		if e.Payload.Op == logcat.MsgEager {
			t.Fatalf("%s %v: denial logged eagerly", c.reason, c.comp)
		}
		want := eagerDenial(c.reason, in, o.Registry().Resolve(in, c.kind), c.kind)
		if c.line != "" && c.line != want {
			t.Fatalf("test table disagrees with the eager text:\n table %q\n eager %q", c.line, want)
		}
		if got := e.Msg(); got != want {
			t.Errorf("%s %v:\n lazy  %q\n eager %q", c.reason, c.comp, got, want)
		}
		var live, dump logcat.Decoder
		if got := *live.Decode(&e); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s %v decodes to %+v, want %+v", c.reason, c.comp, got, c.want)
		}
		pe, ok := logcat.ParseLine(e.Format(), 2017)
		if !ok {
			t.Fatalf("%s %v: dump line %q does not parse", c.reason, c.comp, e.Format())
		}
		if got := *dump.Decode(&pe); !reflect.DeepEqual(got, c.want) {
			t.Errorf("%s %v: dump line decodes to %+v, want %+v", c.reason, c.comp, got, c.want)
		}
	}
}
