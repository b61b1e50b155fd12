package intent

import (
	"slices"
	"strings"
	"testing"
	"testing/quick"
)

func TestParseURIHierarchical(t *testing.T) {
	u, ok := ParseURI("https://foo.com:8443/path/x?q=1#frag")
	if !ok {
		t.Fatal("parse failed")
	}
	if u.Scheme != "https" || u.Host != "foo.com" || u.Port != "8443" ||
		u.Path != "/path/x" || u.Query != "q=1" || u.Fragment != "frag" {
		t.Fatalf("parsed %+v", u)
	}
}

func TestParseURIOpaque(t *testing.T) {
	u, ok := ParseURI("tel:123")
	if !ok {
		t.Fatal("parse failed")
	}
	if u.Scheme != "tel" || u.Opaque != "123" || u.Host != "" {
		t.Fatalf("parsed %+v", u)
	}
}

func TestParseURIRejections(t *testing.T) {
	for _, s := range []string{"", "noscheme", "1bad:scheme", "spa ce:x", ":empty"} {
		if _, ok := ParseURI(s); ok {
			t.Errorf("ParseURI(%q) unexpectedly ok", s)
		}
	}
}

func TestParseURISchemeCaseInsensitive(t *testing.T) {
	u, ok := ParseURI("HTTP://Foo.Com/")
	if !ok || u.Scheme != "http" {
		t.Fatalf("scheme = %q ok=%v", u.Scheme, ok)
	}
}

func TestURIStringRoundTrip(t *testing.T) {
	for _, s := range []string{
		"https://foo.com/",
		"https://foo.com:8443/path?q=1#frag",
		"tel:123",
		"mailto:user@foo.com",
		"content://com.android.contacts/contacts/1",
		"market://details?id=com.example.app",
		"geo:40.4237,-86.9212",
		"file:///sdcard/sample.txt",
	} {
		u, ok := ParseURI(s)
		if !ok {
			t.Fatalf("parse %q failed", s)
		}
		u2, ok := ParseURI(u.String())
		if !ok {
			t.Fatalf("re-parse %q failed", u.String())
		}
		if u != u2 {
			t.Errorf("round trip %q: %+v != %+v", s, u, u2)
		}
	}
}

func TestSampleDataParsesForAllSchemes(t *testing.T) {
	if len(Schemes) != 12 {
		t.Fatalf("scheme catalog has %d entries, paper specifies 12", len(Schemes))
	}
	for _, sc := range Schemes {
		u := SampleData(sc)
		if u.Scheme != sc {
			t.Errorf("SampleData(%q).Scheme = %q", sc, u.Scheme)
		}
		if u.IsZero() {
			t.Errorf("SampleData(%q) is zero", sc)
		}
		if _, ok := ParseURI(u.String()); !ok {
			t.Errorf("SampleData(%q) does not re-parse: %q", sc, u.String())
		}
	}
}

func TestActionCatalogSize(t *testing.T) {
	if len(Actions) <= 100 {
		t.Fatalf("action catalog has %d entries, paper specifies over 100", len(Actions))
	}
	seen := map[string]bool{}
	for _, a := range Actions {
		if seen[a] {
			t.Errorf("duplicate action %q", a)
		}
		seen[a] = true
	}
}

func TestProtectedActions(t *testing.T) {
	if !IsProtected("android.intent.action.BATTERY_LOW") {
		t.Error("BATTERY_LOW should be protected")
	}
	if IsProtected("android.intent.action.VIEW") {
		t.Error("VIEW should not be protected")
	}
	// Every protected action must be in the catalog.
	n := 0
	for _, a := range Actions {
		if IsProtected(a) {
			n++
		}
	}
	if n == 0 {
		t.Fatal("no protected actions in catalog")
	}
	if !KnownAction("android.intent.action.VIEW") || KnownAction("com.made.up.ACTION") {
		t.Error("KnownAction misbehaves")
	}
}

func TestComponentNameFlattenUnflatten(t *testing.T) {
	tests := []struct {
		c    ComponentName
		flat string
	}{
		{ComponentName{"com.foo", "com.foo.Bar"}, "com.foo/.Bar"},
		{ComponentName{"com.foo", "com.other.Bar"}, "com.foo/com.other.Bar"},
	}
	for _, tt := range tests {
		if got := tt.c.FlattenToString(); got != tt.flat {
			t.Errorf("Flatten(%v) = %q, want %q", tt.c, got, tt.flat)
		}
		back, ok := UnflattenComponent(tt.flat)
		if !ok || back != tt.c {
			t.Errorf("Unflatten(%q) = %v ok=%v, want %v", tt.flat, back, ok, tt.c)
		}
	}
}

func TestUnflattenRejections(t *testing.T) {
	for _, s := range []string{"", "nopkg", "/onlyclass", "pkg/"} {
		if _, ok := UnflattenComponent(s); ok {
			t.Errorf("UnflattenComponent(%q) unexpectedly ok", s)
		}
	}
}

func TestIntentString(t *testing.T) {
	in := &Intent{
		Action:    "android.intent.action.DIAL",
		Component: ComponentName{"some.component", "some.component.name"},
	}
	d, _ := ParseURI("tel:123")
	in.Data = d
	in.PutExtra("k", StringValue("v"))
	s := in.String()
	for _, want := range []string{"act=android.intent.action.DIAL", "dat=tel:123", "cmp=some.component/.name", "(has extras)"} {
		if !strings.Contains(s, want) {
			t.Errorf("Intent.String() = %q missing %q", s, want)
		}
	}
}

func TestIntentCloneIsDeep(t *testing.T) {
	in := &Intent{Action: "a", Categories: []string{CategoryDefault}}
	in.PutExtra("k", IntValue(1))
	cp := in.Clone()
	cp.Categories[0] = "changed"
	cp.PutExtra("k2", IntValue(2))
	if in.Categories[0] != CategoryDefault {
		t.Error("clone shares categories slice")
	}
	if in.Extras.Len() != 1 {
		t.Error("clone shares extras bundle")
	}
}

func TestBundleBasics(t *testing.T) {
	b := NewBundle()
	b.Put("a", StringValue("x"))
	b.Put("b", IntValue(7))
	b.Put("a", StringValue("y")) // replace keeps order, single key
	if b.Len() != 2 {
		t.Fatalf("Len = %d", b.Len())
	}
	v, ok := b.Get("a")
	if !ok || v.Str != "y" {
		t.Fatalf("Get(a) = %v %v", v, ok)
	}
	if _, ok := b.Get("zzz"); ok {
		t.Error("Get on absent key ok")
	}
	if got := b.Keys(); len(got) != 2 || got[0] != "a" || got[1] != "b" {
		t.Errorf("Keys() = %v", got)
	}
}

func TestBundleNullDetection(t *testing.T) {
	b := NewBundle()
	b.Put("x", StringValue("v"))
	if b.HasNull() {
		t.Error("HasNull on non-null bundle")
	}
	b.Put("y", NullValue())
	if !b.HasNull() {
		t.Error("HasNull missed the null extra")
	}
}

func TestBundleCloneIndependence(t *testing.T) {
	b := NewBundle()
	b.Put("x", BoolValue(true))
	cp := b.Clone()
	cp.Put("y", FloatValue(1.5))
	if b.Len() != 1 {
		t.Error("clone mutated the original")
	}
	var nilBundle *Bundle
	if nilBundle.Clone() != nil {
		t.Error("nil bundle clone should be nil")
	}
	if nilBundle.Len() != 0 || nilBundle.HasNull() {
		t.Error("nil bundle accessors should be zero-valued")
	}
}

func TestValueStrings(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{StringValue("hi"), "hi"},
		{IntValue(-3), "-3"},
		{Value{Kind: KindLong, I64: 1 << 40}, "1099511627776"},
		{BoolValue(true), "true"},
		{NullValue(), "null"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("Value.String() = %q, want %q", got, tt.want)
		}
	}
}

func TestHasAddCategory(t *testing.T) {
	in := &Intent{}
	in.AddCategory(CategoryDefault)
	in.AddCategory(CategoryDefault)
	if len(in.Categories) != 1 {
		t.Fatalf("AddCategory duplicated: %v", in.Categories)
	}
	if !in.HasCategory(CategoryDefault) || in.HasCategory(CategoryHome) {
		t.Error("HasCategory misbehaves")
	}
}

// Property: flattening then unflattening any component name built from
// plausible identifiers is the identity.
func TestQuickComponentRoundTrip(t *testing.T) {
	cfg := &quick.Config{MaxCount: 200}
	f := func(a, b uint8) bool {
		pkg := "com.pkg" + string(rune('a'+a%26))
		cls := pkg + ".Cls" + string(rune('A'+b%26))
		c := ComponentName{Package: pkg, Class: cls}
		back, ok := UnflattenComponent(c.FlattenToString())
		return ok && back == c
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}

func TestURITextServesSampleText(t *testing.T) {
	for _, s := range append(Schemes, "unknown") {
		u := SampleData(s)
		if got, want := URIText(&u), u.String(); got != want {
			t.Errorf("URIText(SampleData(%q)) = %q, want %q", s, got, want)
		}
		u.Fragment = "f"
		if got, want := URIText(&u), u.String(); got != want {
			t.Errorf("URIText of a non-sample %q URI = %q, want %q", s, got, want)
		}
	}
}

// TestSplitURITextJoinsToURIText: head, or head:tail when tail is set, is
// the URI's text, and a generated opaque datum splits into its scheme and
// opaque part.
func TestSplitURITextJoinsToURIText(t *testing.T) {
	uris := []URI{{}, {Scheme: "zzq", Opaque: "a#b:c"}, {Scheme: "zzq", Opaque: "x", Fragment: "f"}, {Scheme: "zzq", Host: "h", Path: "/p"}}
	for _, s := range Schemes {
		uris = append(uris, SampleData(s))
	}
	for _, u := range uris {
		head, tail := SplitURIText(&u)
		got := head
		if tail != "" {
			got += ":" + tail
		}
		if want := URIText(&u); got != want {
			t.Errorf("SplitURIText(%+v) joins to %q, want %q", u, got, want)
		}
	}
	if head, tail := SplitURIText(&URI{Scheme: "zzq", Opaque: "a#b"}); head != "zzq" || tail != "a#b" {
		t.Errorf("random datum split into %q, %q", head, tail)
	}
}

// TestBundleOrderAndIndependence: a replaced key keeps its position, Keys
// and At follow insertion order, Reset keeps nothing, and a clone shares no
// storage with its source in either direction.
func TestBundleOrderAndIndependence(t *testing.T) {
	b := NewBundle()
	for i, k := range []string{"c", "a", "b"} {
		b.Put(k, IntValue(int64(i)))
	}
	b.Put("a", NullValue())
	want := []string{"c", "a", "b"}
	if got := b.Keys(); !slices.Equal(got, want) {
		t.Fatalf("Keys() = %v, want %v", got, want)
	}
	for i, k := range want {
		if key, _ := b.At(i); key != k {
			t.Fatalf("At(%d) = %q, want %q", i, key, k)
		}
	}
	if v, ok := b.Get("a"); !ok || v.Kind != KindNull || b.Len() != 3 {
		t.Fatalf("replaced value = %v, %v (len %d)", v, ok, b.Len())
	}
	if got := b.String(); got != "Bundle[c=0(int), a=null(null), b=2(int)]" {
		t.Fatalf("String() = %q", got)
	}

	cp := b.Clone()
	cp.Put("c", StringValue("clone"))
	b.Put("b", StringValue("source"))
	if v, _ := b.Get("c"); v.Kind != KindInt {
		t.Errorf("writing the clone changed the source: c = %v", v)
	}
	if v, _ := cp.Get("b"); v.Kind != KindInt {
		t.Errorf("writing the source changed the clone: b = %v", v)
	}
	b.Reset()
	if b.Len() != 0 || b.HasNull() || cp.Len() != 3 {
		t.Errorf("after Reset: len %d, null %v, clone len %d", b.Len(), b.HasNull(), cp.Len())
	}
	if _, ok := b.Get("a"); ok {
		t.Error("Reset kept a key")
	}
}
