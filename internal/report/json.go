package report

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"time"
	"unicode/utf8"

	"repro/internal/telemetry"
)

// The exports' JSON rendering. A shard plan's export runs to tens of
// megabytes, nearly all of it triage flight windows, and encoding/json would
// marshal it by reflection into a pooled buffer, then re-indent it into a
// second one. jsonWriter appends the indented form straight into one
// pre-sized buffer instead. Its bytes are exactly what
// json.MarshalIndent(v, "", "  ") gives for the same value (the tests hold
// encoding/json as the oracle): struct-tag field order, omitempty, null for a
// nil slice or map, sorted map keys, HTML-safe string escaping, ES6 float
// formatting, RFC 3339 times, event kinds by name, and an error wherever
// encoding/json gives one (NaN, ±Inf, a time outside years 0-9999). A field
// added to an export type must be written here too: the oracle test on
// real exports fails until it is.

// MarshalStudy renders e as the canonical study export: the bytes of
// json.MarshalIndent(e, "", "  ") followed by a newline.
func MarshalStudy(e *StudyExport) ([]byte, error) {
	w := jsonWriter{b: make([]byte, 0, studySizeHint(e, 0)+1)}
	w.study(e)
	w.b = append(w.b, '\n')
	if w.err != nil {
		return nil, w.err
	}
	return w.b, nil
}

// Artifacts is cmd/report's -json document: the three studies' exports.
type Artifacts struct {
	Wear  StudyExport `json:"wear"`
	Phone StudyExport `json:"phone"`
	UI    UIExport    `json:"ui"`
}

// WriteArtifacts writes a as indented JSON with a trailing newline, the
// bytes a json.Encoder with SetIndent("", "  ") writes. Nothing is written
// if a holds a value JSON cannot carry.
func WriteArtifacts(out io.Writer, a *Artifacts) error {
	size := 64 + studySizeHint(&a.Wear, 1) + studySizeHint(&a.Phone, 1) + 256*len(a.UI.Rows)
	w := jsonWriter{b: make([]byte, 0, size)}
	w.open('{')
	w.key("wear")
	w.study(&a.Wear)
	w.key("phone")
	w.study(&a.Phone)
	w.key("ui")
	w.open('{')
	w.key("rows")
	array(&w, a.UI.Rows, (*jsonWriter).uiRow)
	w.close('}')
	w.close('}')
	w.b = append(w.b, '\n')
	if w.err != nil {
		return fmt.Errorf("encode report JSON: %w", w.err)
	}
	_, err := out.Write(w.b)
	return err
}

// jsonWriter appends indented JSON to b. depth is the nesting level of the
// next line; err keeps the first value JSON cannot represent.
type jsonWriter struct {
	b     []byte
	depth int
	err   error
}

// newlineIndent is a newline and the indent of the first 32 levels.
const newlineIndent = "\n                                                                "

func (w *jsonWriter) newline() {
	if n := 1 + 2*w.depth; n <= len(newlineIndent) {
		w.b = append(w.b, newlineIndent[:n]...)
		return
	}
	w.b = append(w.b, '\n')
	for i := 0; i < w.depth; i++ {
		w.b = append(w.b, ' ', ' ')
	}
}

// open starts an object ('{') or an array ('[').
func (w *jsonWriter) open(c byte) {
	w.b = append(w.b, c)
	w.depth++
}

// close ends the innermost object or array; one left empty stays {} or [].
func (w *jsonWriter) close(c byte) {
	w.depth--
	if last := w.b[len(w.b)-1]; last != '{' && last != '[' {
		w.newline()
	}
	w.b = append(w.b, c)
}

// next starts the next element or member on its own line, after a comma
// unless it is the first. A value never ends in '{' or '[' (an empty one
// is closed), so the last byte tells the first entry apart.
func (w *jsonWriter) next() {
	if last := w.b[len(w.b)-1]; last != '{' && last != '[' {
		w.b = append(w.b, ',')
	}
	w.newline()
}

// key starts an object member named name, which needs no escaping.
func (w *jsonWriter) key(name string) {
	w.next()
	w.b = append(w.b, '"')
	w.b = append(w.b, name...)
	w.b = append(w.b, '"', ':', ' ')
}

func (w *jsonWriter) fail(err error) {
	if w.err == nil {
		w.err = err
	}
}

func (w *jsonWriter) int(v int) { w.b = strconv.AppendInt(w.b, int64(v), 10) }

func (w *jsonWriter) uint(v uint64) { w.b = strconv.AppendUint(w.b, v, 10) }

func (w *jsonWriter) bool(v bool) { w.b = strconv.AppendBool(w.b, v) }

// float renders f the way encoding/json does: the shortest representation,
// in exponent form below 1e-6 and from 1e21 up, with the exponent unpadded.
func (w *jsonWriter) float(f float64) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		w.fail(fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64)))
		return
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	w.b = strconv.AppendFloat(w.b, f, format, -1, 64)
	if format == 'e' {
		// e-09 becomes e-9.
		if n := len(w.b); w.b[n-4] == 'e' && w.b[n-3] == '-' && w.b[n-2] == '0' {
			w.b[n-2] = w.b[n-1]
			w.b = w.b[:n-1]
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

// string renders s quoted, with encoding/json's HTML-safe escaping; invalid
// UTF-8 becomes U+FFFD.
func (w *jsonWriter) string(s string) {
	b := append(w.b, '"')
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
	w.b = append(b, '"')
}

// time renders t quoted in RFC 3339 with nanoseconds, refusing what
// time.Time.MarshalJSON refuses: a year that is not four digits wide and a
// zone offset of 24 hours or more.
func (w *jsonWriter) time(t time.Time) {
	w.b = append(w.b, '"')
	n0 := len(w.b)
	w.b = t.AppendFormat(w.b, time.RFC3339Nano)
	b := w.b
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
	w.b = append(w.b, '"')
}

// array renders s, or null for a nil slice, with elem rendering each
// element.
func array[T any](w *jsonWriter, s []T, elem func(*jsonWriter, *T)) {
	if s == nil {
		w.b = append(w.b, "null"...)
		return
	}
	w.open('[')
	for i := range s {
		w.next()
		elem(w, &s[i])
	}
	w.close(']')
}

// object renders m with its keys in sorted order, or null for a nil map.
func object[V any](w *jsonWriter, m map[string]V, val func(*jsonWriter, V)) {
	if m == nil {
		w.b = append(w.b, "null"...)
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	w.open('{')
	for _, k := range keys {
		w.next()
		w.string(k)
		w.b = append(w.b, ':', ' ')
		val(w, m[k])
	}
	w.close('}')
}

func (w *jsonWriter) study(e *StudyExport) {
	w.open('{')
	w.key("fleet")
	w.string(e.Fleet)
	w.key("seed")
	w.uint(e.Seed)
	w.key("intentsSent")
	w.int(e.Sent)
	w.key("reboots")
	w.int(e.Reboots)
	w.key("campaigns")
	array(w, e.Campaigns, (*jsonWriter).campaign)
	w.key("combined")
	w.open('{')
	w.key("securityShare")
	w.float(e.Combined.SecurityShare)
	w.key("uncaughtClasses")
	array(w, e.Combined.Uncaught, (*jsonWriter).classCount)
	w.key("crashClasses")
	array(w, e.Combined.CrashClasses, (*jsonWriter).classCount)
	w.close('}')
	w.key("tableIII")
	array(w, e.TableIII, (*jsonWriter).tableIIIRow)
	w.key("tableIV")
	array(w, e.TableIV, (*jsonWriter).tableIVRow)
	w.key("fig3a")
	object(w, e.Fig3a, (*jsonWriter).int)
	w.key("fig4CrashAppRate")
	object(w, e.Fig4, (*jsonWriter).float)
	w.key("rebootComponents")
	array(w, e.Reboot, func(w *jsonWriter, s *string) { w.string(*s) })
	if e.Telemetry != nil {
		w.key("telemetry")
		w.telemetry(e.Telemetry)
	}
	if e.Triage != nil {
		w.key("triage")
		w.triage(e.Triage)
	}
	if len(e.FaultResilience) > 0 {
		w.key("faultResilience")
		array(w, e.FaultResilience, (*jsonWriter).faultRow)
	}
	w.close('}')
}

func (w *jsonWriter) campaign(c *CampaignExport) {
	w.open('{')
	w.key("campaign")
	w.string(c.Campaign)
	w.key("sent")
	w.int(c.Sent)
	w.key("crashEvents")
	w.int(c.Crashes)
	w.key("anrEvents")
	w.int(c.ANRs)
	w.key("securityEvents")
	w.int(c.Security)
	w.key("reboots")
	w.int(c.Reboots)
	w.close('}')
}

func (w *jsonWriter) classCount(c *ClassCountExport) {
	w.open('{')
	w.key("class")
	w.string(c.Class)
	w.key("count")
	w.int(c.Count)
	w.close('}')
}

func (w *jsonWriter) tableIIIRow(r *TableIIIExportRow) {
	w.open('{')
	w.key("campaign")
	w.string(r.Campaign)
	w.key("category")
	w.string(r.Category)
	w.key("reboot")
	w.float(r.Reboot)
	w.key("crash")
	w.float(r.Crash)
	w.key("hang")
	w.float(r.Hang)
	w.key("noEffect")
	w.float(r.NoEffect)
	w.close('}')
}

func (w *jsonWriter) tableIVRow(r *TableIVExportRow) {
	w.open('{')
	w.key("class")
	w.string(r.Class)
	w.key("crashes")
	w.int(r.Crashes)
	w.key("share")
	w.float(r.Share)
	w.close('}')
}

func (w *jsonWriter) faultRow(r *FaultResilienceExportRow) {
	w.open('{')
	w.key("fault")
	w.string(r.Fault)
	w.key("app")
	w.string(r.App)
	w.key("windows")
	w.int(r.Windows)
	if r.Degraded != 0 {
		w.key("degradedRecovered")
		w.int(r.Degraded)
	}
	if r.Stalls != 0 {
		w.key("stalls")
		w.int(r.Stalls)
	}
	if r.SilentDrops != 0 {
		w.key("silentDrops")
		w.int(r.SilentDrops)
	}
	if r.FailedRecoveries != 0 {
		w.key("failedRecoveries")
		w.int(r.FailedRecoveries)
	}
	w.key("score")
	w.float(r.Score)
	w.close('}')
}

func (w *jsonWriter) telemetry(s *telemetry.Snapshot) {
	w.open('{')
	if len(s.Counters) > 0 {
		w.key("counters")
		object(w, s.Counters, (*jsonWriter).uint)
	}
	if len(s.Gauges) > 0 {
		w.key("gauges")
		object(w, s.Gauges, (*jsonWriter).float)
	}
	if len(s.Histograms) > 0 {
		w.key("histograms")
		object(w, s.Histograms, (*jsonWriter).histogram)
	}
	w.close('}')
}

func (w *jsonWriter) histogram(h telemetry.HistogramSnapshot) {
	w.open('{')
	w.key("count")
	w.uint(h.Count)
	w.key("sum")
	w.float(h.Sum)
	w.key("p50")
	w.float(h.P50)
	w.key("p95")
	w.float(h.P95)
	w.key("p99")
	w.float(h.P99)
	w.close('}')
}

func (w *jsonWriter) triage(t *TriageExport) {
	w.open('{')
	w.key("rawCrashes")
	w.int(t.RawCrashes)
	if t.RawANRs != 0 {
		w.key("rawANRs")
		w.int(t.RawANRs)
	}
	if t.RawFaults != 0 {
		w.key("rawFaultVerdicts")
		w.int(t.RawFaults)
	}
	w.key("uniqueSignatures")
	w.int(t.Unique)
	w.key("buckets")
	array(w, t.Buckets, (*jsonWriter).bucket)
	w.close('}')
}

func (w *jsonWriter) bucket(b *TriageBucketExport) {
	w.open('{')
	w.key("hash")
	w.string(b.Hash)
	if b.Kind != "" {
		w.key("kind")
		w.string(b.Kind)
	}
	w.key("count")
	w.int(b.Count)
	w.key("class")
	w.string(b.Class)
	if b.Frame != "" {
		w.key("frame")
		w.string(b.Frame)
	}
	if b.Exemplar != "" {
		w.key("exemplar")
		w.string(b.Exemplar)
	}
	if b.Minimized != "" {
		w.key("minimized")
		w.string(b.Minimized)
	}
	w.key("reproduced")
	w.bool(b.Reproduced)
	if b.Trials != 0 {
		w.key("minimizerTrials")
		w.int(b.Trials)
	}
	if b.Trace != "" {
		w.key("trace")
		w.string(b.Trace)
	}
	if len(b.Flight) > 0 {
		w.key("flight")
		array(w, b.Flight, (*jsonWriter).event)
	}
	w.close('}')
}

func (w *jsonWriter) event(e *telemetry.Event) {
	w.open('{')
	w.key("seq")
	w.uint(e.Seq)
	w.key("time")
	w.time(e.Time)
	w.key("kind")
	w.string(e.Kind.String())
	if e.Trace != "" {
		w.key("trace")
		w.string(e.Trace)
	}
	if e.Subject != "" {
		w.key("subject")
		w.string(e.Subject)
	}
	if e.Action != "" {
		w.key("action")
		w.string(e.Action)
	}
	if e.Detail != "" {
		w.key("detail")
		w.string(e.Detail)
	}
	w.close('}')
}

func (w *jsonWriter) uiRow(r *UIExportRow) {
	w.open('{')
	w.key("experiment")
	w.string(r.Experiment)
	w.key("injectedEvents")
	w.int(r.InjectedEvents)
	w.key("exceptionsRaised")
	w.int(r.Exceptions)
	w.key("exceptionRate")
	w.float(r.ExceptionRate)
	w.key("crashes")
	w.int(r.Crashes)
	w.key("crashRate")
	w.float(r.CrashRate)
	w.key("systemCrashes")
	w.int(r.SystemCrashes)
	w.close('}')
}

// studySizeHint bounds the rendered length of e at the given depth from
// above, unless its strings need escaping, so that rendering it grows the
// buffer at most once. The flight windows are nearly all of a shard plan's
// export, so their events are counted field by field; the rest takes a
// generous constant per entry.
func studySizeHint(e *StudyExport, depth int) int {
	n := 2048 + 256*(len(e.Campaigns)+len(e.Combined.Uncaught)+len(e.Combined.CrashClasses)+
		len(e.TableIII)+len(e.TableIV)+len(e.Fig3a)+len(e.Fig4)+len(e.FaultResilience))
	for _, r := range e.Reboot {
		n += 2*depth + 8 + len(r)
	}
	for _, r := range e.FaultResilience {
		n += len(r.Fault) + len(r.App)
	}
	if s := e.Telemetry; s != nil {
		n += 256 + 128*(len(s.Counters)+len(s.Gauges)) + 384*len(s.Histograms)
	}
	if t := e.Triage; t != nil {
		for i := range t.Buckets {
			b := &t.Buckets[i]
			n += 512 + 26*depth + len(b.Hash) + len(b.Kind) + len(b.Class) + len(b.Frame) +
				len(b.Exemplar) + len(b.Minimized) + len(b.Trace)
			for j := range b.Flight {
				n += eventSize(&b.Flight[j], depth+5)
			}
		}
	}
	return n + n/256
}

// eventSize is f's rendered length as an element at the given depth, but
// for its strings' escapes.
func eventSize(f *telemetry.Event, depth int) int {
	member := 2 + 2*(depth+1) // comma, newline and indent
	n := 2 + 2*depth + len("{") + 1 + 2*depth + len("}") +
		3*member + len(`"seq": "time": "kind": ""`) + len(f.Kind.String()) +
		len(`"2006-01-02T15:04:05Z"`)
	for v := f.Seq; ; v /= 10 {
		n++
		if v < 10 {
			break
		}
	}
	if f.Time.Location() != time.UTC {
		n += len("+07:00") - len("Z")
	}
	if ns := f.Time.Nanosecond(); ns != 0 {
		n += len(".999999999")
		for ; ns%10 == 0; ns /= 10 {
			n--
		}
	}
	if f.Trace != "" {
		n += member + len(`"trace": ""`) + len(f.Trace)
	}
	if f.Subject != "" {
		n += member + len(`"subject": ""`) + len(f.Subject)
	}
	if f.Action != "" {
		n += member + len(`"action": ""`) + len(f.Action)
	}
	if f.Detail != "" {
		n += member + len(`"detail": ""`) + len(f.Detail)
	}
	return n
}
