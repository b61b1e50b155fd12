// Package jsonw is the append-based JSON writer behind the study exports and
// the checkpoint journal's shard records. Both run to megabytes of triage
// flight windows, and encoding/json would marshal them by reflection into a
// pooled buffer (and, for the indented export, re-indent into a second one).
// A Writer appends straight into one buffer instead.
//
// Its bytes are exactly what encoding/json gives for the same value: compact
// as json.Marshal, or indented as json.MarshalIndent(v, "", "  "). The
// callers render struct-tag field order, omitempty and null for a nil slice
// or map themselves; the Writer supplies sorted map keys, HTML-safe string
// escaping, ES6 float formatting, RFC 3339 times, event kinds by name, and
// an error wherever encoding/json gives one (NaN, ±Inf, a time outside years
// 0-9999). The callers' tests hold encoding/json as the oracle.
package jsonw

import (
	"fmt"
	"math"
	"slices"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/telemetry"
)

// Writer appends JSON to B, indented by two spaces a level when Indent is
// set and compact otherwise. It keeps the first value JSON cannot represent
// as its error.
type Writer struct {
	B      []byte
	Indent bool
	// depth is the nesting level of the next line.
	depth int
	err   error
}

// Err returns the first value the writer could not represent, if any.
func (w *Writer) Err() error { return w.err }

// fail records err unless an earlier error is already kept.
func (w *Writer) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

// newlineIndent is a newline and the indent of the first 32 levels.
const newlineIndent = "\n                                                                "

func (w *Writer) newline() {
	if !w.Indent {
		return
	}
	if n := 1 + 2*w.depth; n <= len(newlineIndent) {
		w.B = append(w.B, newlineIndent[:n]...)
		return
	}
	w.B = append(w.B, '\n')
	for i := 0; i < w.depth; i++ {
		w.B = append(w.B, ' ', ' ')
	}
}

// Open starts an object ('{') or an array ('[').
func (w *Writer) Open(c byte) {
	w.B = append(w.B, c)
	w.depth++
}

// Close ends the innermost object or array; one left empty stays {} or [].
func (w *Writer) Close(c byte) {
	w.depth--
	if last := w.B[len(w.B)-1]; last != '{' && last != '[' {
		w.newline()
	}
	w.B = append(w.B, c)
}

// Next starts the next element or member, after a comma unless it is the
// first. A value never ends in '{' or '[' (an empty one is closed), so the
// last byte tells the first entry apart.
func (w *Writer) Next() {
	if last := w.B[len(w.B)-1]; last != '{' && last != '[' {
		w.B = append(w.B, ',')
	}
	w.newline()
}

// Key starts an object member named name, which needs no escaping.
func (w *Writer) Key(name string) {
	w.Next()
	w.B = append(w.B, '"')
	w.B = append(w.B, name...)
	w.B = append(w.B, '"')
	w.colon()
}

func (w *Writer) colon() {
	if w.Indent {
		w.B = append(w.B, ':', ' ')
	} else {
		w.B = append(w.B, ':')
	}
}

func (w *Writer) Null() { w.B = append(w.B, "null"...) }

func (w *Writer) Int(v int) { w.B = strconv.AppendInt(w.B, int64(v), 10) }

func (w *Writer) Int64(v int64) { w.B = strconv.AppendInt(w.B, v, 10) }

func (w *Writer) Uint(v uint64) { w.B = strconv.AppendUint(w.B, v, 10) }

func (w *Writer) Bool(v bool) { w.B = strconv.AppendBool(w.B, v) }

// Float renders f the way encoding/json does: the shortest representation,
// in exponent form below 1e-6 and from 1e21 up, with the exponent unpadded.
func (w *Writer) Float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.fail(fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64)))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.B = strconv.AppendFloat(w.B, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(w.B); w.B[n-4] == 'e' && w.B[n-3] == '-' && w.B[n-2] == '0' {
			w.B[n-2] = w.B[n-1]
			w.B = w.B[:n-1]
		}
	}
}

// htmlSafe marks the ASCII bytes a string carries unescaped: everything
// printable but the quote, the backslash and the HTML-significant <, > and &.
var htmlSafe = func() (safe [utf8.RuneSelf]bool) {
	for c := ' '; c < utf8.RuneSelf; c++ {
		safe[c] = c != '"' && c != '\\' && c != '<' && c != '>' && c != '&'
	}
	return safe
}()

const hexDigits = "0123456789abcdef"

// Str renders s quoted, with encoding/json's HTML-safe escaping; invalid
// UTF-8 becomes U+FFFD.
func (w *Writer) Str(s string) {
	b := append(w.B, '"')
	start := 0
	for i := 0; i < len(s); {
		if c := s[i]; c < utf8.RuneSelf {
			if htmlSafe[c] {
				i++
				continue
			}
			b = append(b, s[start:i]...)
			switch c {
			case '\\', '"':
				b = append(b, '\\', c)
			case '\b':
				b = append(b, '\\', 'b')
			case '\f':
				b = append(b, '\\', 'f')
			case '\n':
				b = append(b, '\\', 'n')
			case '\r':
				b = append(b, '\\', 'r')
			case '\t':
				b = append(b, '\\', 't')
			default:
				b = append(b, '\\', 'u', '0', '0', hexDigits[c>>4], hexDigits[c&0xF])
			}
			i++
			start = i
			continue
		}
		r, size := utf8.DecodeRuneInString(s[i:])
		switch {
		case r == utf8.RuneError && size == 1:
			b = append(b, s[start:i]...)
			b = append(b, `\ufffd`...)
		case r == '\u2028' || r == '\u2029':
			b = append(b, s[start:i]...)
			b = append(b, '\\', 'u', '2', '0', '2', hexDigits[r&0xF])
		default:
			i += size
			continue
		}
		i += size
		start = i
	}
	b = append(b, s[start:]...)
	w.B = append(b, '"')
}

// Strings renders s as an array of strings, or null for a nil slice.
func (w *Writer) Strings(s []string) {
	Array(w, s, func(w *Writer, s *string) { w.Str(*s) })
}

// Time renders t quoted in RFC 3339 with nanoseconds, refusing what
// time.Time.MarshalJSON refuses: a year that is not four digits wide and a
// zone offset of 24 hours or more.
func (w *Writer) Time(t time.Time) {
	w.B = append(w.B, '"')
	n0 := len(w.B)
	w.B = t.AppendFormat(w.B, time.RFC3339Nano)
	b := w.B
	switch {
	case b[n0+len("9999")] != '-':
		w.fail(fmt.Errorf("json: time %s: year outside of range [0,9999]", b[n0:]))
	case b[len(b)-1] != 'Z':
		c := b[len(b)-len("Z07:00")]
		hour := 10*(b[len(b)-len("07:00")]-'0') + b[len(b)-len("7:00")] - '0'
		if '0' <= c && c <= '9' || hour >= 24 {
			w.fail(fmt.Errorf("json: time %s: timezone hour outside of range [0,23]", b[n0:]))
		}
	}
	w.B = append(w.B, '"')
}

// Array renders s, or null for a nil slice, with elem rendering each
// element.
func Array[T any](w *Writer, s []T, elem func(*Writer, *T)) {
	if s == nil {
		w.Null()
		return
	}
	w.Open('[')
	for i := range s {
		w.Next()
		elem(w, &s[i])
	}
	w.Close(']')
}

// Object renders m with its keys in sorted order, or null for a nil map.
func Object[K ~string, V any](w *Writer, m map[K]V, val func(*Writer, V)) {
	if m == nil {
		w.Null()
		return
	}
	var small [16]K
	keys := small[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	w.Open('{')
	for _, k := range keys {
		w.Next()
		w.Str(string(k))
		w.colon()
		val(w, m[k])
	}
	w.Close('}')
}

// Event renders one flight-recorder event as telemetry.Event's struct tags
// lay it out.
func (w *Writer) Event(e *telemetry.Event) {
	w.Open('{')
	w.Key("seq")
	w.Uint(e.Seq)
	w.Key("time")
	w.Time(e.Time)
	w.Key("kind")
	w.Str(e.Kind.String())
	if e.Trace != "" {
		w.Key("trace")
		w.Str(e.Trace)
	}
	if e.Subject != "" {
		w.Key("subject")
		w.Str(e.Subject)
	}
	if e.Action != "" {
		w.Key("action")
		w.Str(e.Action)
	}
	if e.Detail != "" {
		w.Key("detail")
		w.Str(e.Detail)
	}
	w.Close('}')
}

// EventSize is e's rendered length as an array element (its comma
// included), at the given depth when indent is set, but for its strings'
// escapes.
func EventSize(e *telemetry.Event, indent bool, depth int) int {
	// nl is a newline and an indent at depth; a member adds a comma, a
	// newline and one more level of indent, and a space after its colon.
	nl, member, space := 0, 1, 0
	if indent {
		nl, member, space = 1+2*depth, 2+2*(depth+1), 1
	}
	n := 1 + nl + len("{") + nl + len("}") +
		3*(member+space) + len(`"seq":"time":"kind":""`) + len(e.Kind.String()) +
		len(`"2006-01-02T15:04:05Z"`)
	for v := e.Seq; ; v /= 10 {
		n++
		if v < 10 {
			break
		}
	}
	if e.Time.Location() != time.UTC {
		n += len("+07:00") - len("Z")
	}
	if ns := e.Time.Nanosecond(); ns != 0 {
		n += len(".999999999")
		for ; ns%10 == 0; ns /= 10 {
			n--
		}
	}
	if e.Trace != "" {
		n += member + space + len(`"trace":""`) + len(e.Trace)
	}
	if e.Subject != "" {
		n += member + space + len(`"subject":""`) + len(e.Subject)
	}
	if e.Action != "" {
		n += member + space + len(`"action":""`) + len(e.Action)
	}
	if e.Detail != "" {
		n += member + space + len(`"detail":""`) + len(e.Detail)
	}
	return n
}
