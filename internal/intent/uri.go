// Package intent models Android's Intent messaging abstraction: the passive
// data structure (action, data URI, category, MIME type, component, extras)
// that QGJ mutates and injects. The fuzzer, the OS dispatcher, and the adb
// `am` shell utility all operate on this package's types.
package intent

import (
	"strings"
)

// URI is a parsed android.net.Uri-style reference. Android URIs can be
// hierarchical (scheme://authority/path?query#fragment) or opaque
// (scheme:opaque-part), and intent data is matched primarily on the scheme.
type URI struct {
	Scheme   string
	Opaque   string // opaque schemes (tel:, mailto:, sms:) keep the raw part
	Host     string
	Port     string
	Path     string
	Query    string
	Fragment string
}

// The 12 data URI schemes the QGJ fuzzer has configured (Section III-B:
// "over 100 different Actions and 12 types of data URI (e.g., https, http,
// tel)").
var Schemes = []string{
	"http", "https", "tel", "file", "content", "mailto",
	"geo", "sms", "smsto", "market", "ftp", "voicemail",
}

// opaqueSchemes use scheme:data form without the // authority marker.
var opaqueSchemes = map[string]bool{
	"tel": true, "mailto": true, "sms": true, "smsto": true,
	"geo": true, "voicemail": true,
}

// IsOpaqueScheme reports whether the scheme conventionally uses the opaque
// (non-hierarchical) form.
func IsOpaqueScheme(scheme string) bool { return opaqueSchemes[scheme] }

// ParseURI parses s into a URI. It is intentionally permissive, like
// android.net.Uri: almost any string parses, and only the empty string and
// strings without a scheme separator are rejected. ok is false on rejection.
func ParseURI(s string) (URI, bool) {
	if s == "" {
		return URI{}, false
	}
	scheme, rest, found := strings.Cut(s, ":")
	if !found || scheme == "" {
		return URI{}, false
	}
	// Scheme must be a plausible token (letters, digits, +, -, .), starting
	// with a letter; android.net.Uri accepts this grammar from RFC 3986.
	if !validScheme(scheme) {
		return URI{}, false
	}
	u := URI{Scheme: strings.ToLower(scheme)}
	if !strings.HasPrefix(rest, "//") {
		u.Opaque = rest
		if i := strings.IndexByte(u.Opaque, '#'); i >= 0 {
			u.Opaque, u.Fragment = u.Opaque[:i], u.Opaque[i+1:]
		}
		return u, true
	}
	rest = rest[2:]
	if i := strings.IndexByte(rest, '#'); i >= 0 {
		rest, u.Fragment = rest[:i], rest[i+1:]
	}
	if i := strings.IndexByte(rest, '?'); i >= 0 {
		rest, u.Query = rest[:i], rest[i+1:]
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest, u.Path = rest[:i], rest[i:]
	}
	// Split authority into host[:port].
	if i := portColon(rest); i >= 0 {
		u.Host, u.Port = rest[:i], rest[i+1:]
	} else {
		u.Host = rest
	}
	return u, true
}

// portColon returns the index of the ':' that separates an authority's
// host from its port, or -1 when it has none: the last ':' not followed by
// a ']' (which would put it inside a bracketed IPv6 host).
func portColon(authority string) int {
	i := strings.LastIndexByte(authority, ':')
	if i < 0 || strings.Contains(authority[i+1:], "]") {
		return -1
	}
	return i
}

func validScheme(s string) bool {
	for i, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z':
		case i > 0 && (r >= '0' && r <= '9' || r == '+' || r == '-' || r == '.'):
		default:
			return false
		}
	}
	return s != ""
}

// String re-assembles the URI into its textual form.
func (u URI) String() string {
	if u.Scheme == "" {
		return ""
	}
	var buf [64]byte
	return string(u.appendText(buf[:0]))
}

// appendText appends String's rendering of u to dst.
func (u *URI) appendText(dst []byte) []byte {
	if u.Scheme == "" {
		return dst
	}
	dst = append(dst, u.Scheme...)
	dst = append(dst, ':')
	if u.Opaque != "" || (u.Host == "" && u.Path == "" && u.Query == "" && IsOpaqueScheme(u.Scheme)) {
		dst = append(dst, u.Opaque...)
	} else {
		dst = append(dst, "//"...)
		dst = append(dst, u.Host...)
		// An empty port keeps its ':' when the host has a ':' that would
		// otherwise parse back as the port separator.
		if u.Port != "" || portColon(u.Host) >= 0 {
			dst = append(dst, ':')
			dst = append(dst, u.Port...)
		}
		dst = append(dst, u.Path...)
		if u.Query != "" {
			dst = append(dst, '?')
			dst = append(dst, u.Query...)
		}
	}
	if u.Fragment != "" {
		dst = append(dst, '#')
		dst = append(dst, u.Fragment...)
	}
	return dst
}

// IsZero reports whether the URI is unset.
func (u URI) IsZero() bool { return u.Scheme == "" && u.Opaque == "" && u.Host == "" && u.Path == "" }

// samples[i] is SampleData(Schemes[i]) and sampleTexts[i] its text.
// Campaign generation draws data almost exclusively from SampleData, so the
// dispatch hot path hands out these shared strings instead of re-assembling
// the same dozen URIs millions of times.
var samples, sampleTexts = func() ([]URI, []string) {
	uris, texts := make([]URI, len(Schemes)), make([]string, len(Schemes))
	for i, s := range Schemes {
		uris[i] = SampleData(s)
		texts[i] = uris[i].String()
	}
	return uris, texts
}()

// URIText returns the textual form of *u, serving catalog sample URIs from
// sampleTexts and falling back to String() for everything else. It finds
// the scheme and compares u with its sample field by field: a URI-keyed map
// would hash seven strings per lookup.
func URIText(u *URI) string {
	if text, ok := sampleText(u); ok {
		return text
	}
	return u.String()
}

func sampleText(u *URI) (string, bool) {
	for i, s := range Schemes {
		if u.Scheme == s {
			return sampleTexts[i], *u == samples[i]
		}
	}
	return "", false
}

// appendURIText appends URIText(u) to dst without an intermediate string.
func appendURIText(dst []byte, u *URI) []byte {
	if text, ok := sampleText(u); ok {
		return append(dst, text...)
	}
	return u.appendText(dst)
}

// SplitURIText returns u's text as head, or, when tail is not empty, as
// head + ":" + tail. An opaque URI made of a scheme and an opaque part
// alone (the shape of a generated random datum) splits into the two,
// which costs no allocation; any other URI is served by URIText.
func SplitURIText(u *URI) (head, tail string) {
	if u.Scheme != "" && u.Opaque != "" && u.Host == "" && u.Port == "" && u.Path == "" && u.Query == "" && u.Fragment == "" {
		if text, ok := sampleText(u); ok {
			return text, ""
		}
		return u.Scheme, u.Opaque
	}
	return URIText(u), ""
}

// SampleData returns a well-formed example datum for each configured scheme,
// mirroring the paper's examples ("data=http://foo.com/", "data=tel:123").
// Unknown schemes get a generic hierarchical form.
func SampleData(scheme string) URI {
	switch scheme {
	case "http", "https", "ftp":
		return URI{Scheme: scheme, Host: "foo.com", Path: "/"}
	case "tel", "voicemail":
		return URI{Scheme: scheme, Opaque: "123"}
	case "mailto":
		return URI{Scheme: scheme, Opaque: "user@foo.com"}
	case "sms", "smsto":
		return URI{Scheme: scheme, Opaque: "5551234"}
	case "geo":
		return URI{Scheme: scheme, Opaque: "40.4237,-86.9212"}
	case "file":
		return URI{Scheme: scheme, Path: "/sdcard/sample.txt"}
	case "content":
		return URI{Scheme: scheme, Host: "com.android.contacts", Path: "/contacts/1"}
	case "market":
		return URI{Scheme: scheme, Host: "details", Query: "id=com.example.app"}
	default:
		return URI{Scheme: scheme, Host: "example.com", Path: "/x"}
	}
}
