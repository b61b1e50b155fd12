package intent

import (
	"strings"
	"testing"
)

func TestValueStringRemainingKinds(t *testing.T) {
	u, _ := ParseURI("https://foo.com/")
	tests := []struct {
		v    Value
		want string
	}{
		{FloatValue(1.5), "1.5"},
		{Value{Kind: KindURI, URI: u}, "https://foo.com/"},
		{BoolValue(false), "false"},
		{Value{}, "?"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Value.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestKindStrings(t *testing.T) {
	kinds := map[Kind]string{
		KindString: "string", KindInt: "int", KindLong: "long",
		KindFloat: "float", KindBool: "boolean", KindURI: "uri",
		KindNull: "null", Kind(99): "unknown",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(k), got, want)
		}
	}
}

func TestBundleString(t *testing.T) {
	b := NewBundle()
	if got := b.String(); got != "Bundle[]" {
		t.Errorf("empty bundle = %q", got)
	}
	b.Put("a", StringValue("x"))
	b.Put("b", NullValue())
	s := b.String()
	for _, want := range []string{"a=x(string)", "b=null(null)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Bundle.String() = %q missing %q", s, want)
		}
	}
}

func TestIntentStringWithTypeAndFlags(t *testing.T) {
	in := &Intent{
		Action: "android.intent.action.SEND",
		Type:   "text/plain",
		Flags:  FlagActivityNewTask,
	}
	in.AddCategory(CategoryDefault)
	s := in.String()
	for _, want := range []string{"typ=text/plain", "flg=0x10000000", "cat=" + CategoryDefault} {
		if !strings.Contains(s, want) {
			t.Errorf("Intent.String() = %q missing %q", s, want)
		}
	}
}

func TestComponentNameString(t *testing.T) {
	c := ComponentName{Package: "com.x", Class: "com.x.Y"}
	if got := c.String(); got != "ComponentInfo{com.x/com.x.Y}" {
		t.Errorf("String() = %q", got)
	}
	if got := (ComponentName{}).String(); got != "ComponentInfo{}" {
		t.Errorf("zero String() = %q", got)
	}
}

func TestURIStringZeroAndFragment(t *testing.T) {
	if got := (URI{}).String(); got != "" {
		t.Errorf("zero URI String = %q", got)
	}
	u, ok := ParseURI("tel:123#frag")
	if !ok {
		t.Fatal("parse failed")
	}
	if u.Fragment != "frag" {
		t.Fatalf("fragment = %q", u.Fragment)
	}
	if got := u.String(); got != "tel:123#frag" {
		t.Errorf("String = %q", got)
	}
}

func TestIsOpaqueScheme(t *testing.T) {
	if !IsOpaqueScheme("tel") || IsOpaqueScheme("https") {
		t.Error("IsOpaqueScheme misbehaves")
	}
}

func TestCompatTableConsistency(t *testing.T) {
	// Every action in the compat table must exist in the catalog, and
	// every scheme it references must be one of the 12.
	for _, a := range Actions {
		if !ActionExpectsData(a) {
			continue
		}
		found := false
		for _, s := range Schemes {
			if ActionAcceptsScheme(a, s) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("data-expecting action %q accepts no catalog scheme", a)
		}
	}
	// Spot-check pairs the generator relies on.
	if !ActionAcceptsScheme("android.intent.action.DIAL", "tel") {
		t.Error("DIAL must accept tel")
	}
	if ActionAcceptsScheme("android.intent.action.DIAL", "https") {
		t.Error("DIAL must not accept https")
	}
	if ActionAcceptsScheme("android.intent.action.MAIN", "https") {
		t.Error("MAIN expects no data")
	}
	if !KnownScheme("tel") || KnownScheme("zz9q") {
		t.Error("KnownScheme misbehaves")
	}
}
