package farm

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/jsonw"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// Checkpoint wire forms. The journal must round-trip everything a completed
// shard contributes to the final merge — the analysis report, the QGJ
// summary, and the triage crash records — so a resumed run never re-executes
// finished work. analysis.Report is not directly JSON-serializable (its
// component map is keyed by a struct), so the farm flattens it into the
// structs here, which decoding fills; encoding renders the same form straight
// from the shard result (writeRecord, below). Field names are part of the
// checkpoint format contract (docs/farm.md).

// reportJSON is the flattened analysis.Report.
type reportJSON struct {
	Components        []componentJSON `json:"components"`
	RebootTimes       []time.Time     `json:"rebootTimes,omitempty"`
	CoreServiceDeaths []string        `json:"coreServiceDeaths,omitempty"`
	CrashEvents       int             `json:"crashEvents"`
	ANREvents         int             `json:"anrEvents"`
	SecurityEvents    int             `json:"securityEvents"`
	Entries           int             `json:"entries"`
}

// componentJSON is one flattened analysis.ComponentReport.
type componentJSON struct {
	Package        string                 `json:"package"`
	Class          string                 `json:"class"`
	Type           string                 `json:"type,omitempty"`
	Deliveries     int                    `json:"deliveries"`
	Security       int                    `json:"security,omitempty"`
	ANRs           int                    `json:"anrs,omitempty"`
	RebootInvolved bool                   `json:"rebootInvolved,omitempty"`
	Rejected       map[javalang.Class]int `json:"rejected,omitempty"`
	Caught         map[javalang.Class]int `json:"caught,omitempty"`
	CrashRoots     map[javalang.Class]int `json:"crashRoots,omitempty"`
	ANRClasses     map[javalang.Class]int `json:"anrClasses,omitempty"`
}

// restore rebuilds the analysis.Report.
func (rj reportJSON) restore() *analysis.Report {
	r := analysis.AnalyzeEntries(nil)
	r.RebootTimes = rj.RebootTimes
	r.CoreServiceDeaths = rj.CoreServiceDeaths
	r.CrashEvents = rj.CrashEvents
	r.ANREvents = rj.ANREvents
	r.SecurityEvents = rj.SecurityEvents
	r.Entries = rj.Entries
	for _, cj := range rj.Components {
		cn := intent.ComponentName{Package: cj.Package, Class: cj.Class}
		cr := &analysis.ComponentReport{
			Component:      cn,
			Type:           cj.Type,
			Deliveries:     cj.Deliveries,
			Security:       cj.Security,
			ANRs:           cj.ANRs,
			RebootInvolved: cj.RebootInvolved,
			Rejected:       orEmpty(cj.Rejected),
			Caught:         orEmpty(cj.Caught),
			CrashRoots:     orEmpty(cj.CrashRoots),
			ANRClasses:     orEmpty(cj.ANRClasses),
		}
		r.Components[cn] = cr
	}
	return r
}

func orEmpty(m map[javalang.Class]int) map[javalang.Class]int {
	if m == nil {
		return make(map[javalang.Class]int)
	}
	return m
}

// intentJSON is the serialized reproducer intent. Bundles keep insertion
// order, so extras serialize as an ordered list.
type intentJSON struct {
	Action     string               `json:"action,omitempty"`
	Data       intent.URI           `json:"data"`
	Categories []string             `json:"categories,omitempty"`
	Type       string               `json:"type,omitempty"`
	Component  intent.ComponentName `json:"component"`
	Flags      uint32               `json:"flags,omitempty"`
	Extras     []extraJSON          `json:"extras,omitempty"`
}

// extraJSON is one ordered bundle entry.
type extraJSON struct {
	Key   string       `json:"key"`
	Value intent.Value `json:"value"`
}

func (ij *intentJSON) restore() *intent.Intent {
	if ij == nil {
		return nil
	}
	in := &intent.Intent{
		Action:     ij.Action,
		Data:       ij.Data,
		Categories: ij.Categories,
		Type:       ij.Type,
		Component:  ij.Component,
		Flags:      ij.Flags,
	}
	for _, e := range ij.Extras {
		in.PutExtra(e.Key, e.Value)
	}
	return in
}

// crashJSON is one serialized triage record (crash, ANR or fault verdict),
// including the flight-recorder window captured at the failure and the
// record's fold weight (Crash.Repeats, omitted when zero).
// telemetry.Event already round-trips byte-identically through JSON, so
// the window serializes as-is; Kind is omitted for plain crashes (the zero
// value) to keep v1-era records readable in spirit, though the journal
// version still gates them.
type crashJSON struct {
	Kind      string            `json:"kind,omitempty"`
	Process   string            `json:"process,omitempty"`
	Component string            `json:"component,omitempty"`
	Classes   []string          `json:"classes,omitempty"`
	Frames    []string          `json:"frames,omitempty"`
	Fault     string            `json:"fault,omitempty"`
	Intent    *intentJSON       `json:"intent,omitempty"`
	Trace     string            `json:"trace,omitempty"`
	Flight    []telemetry.Event `json:"flight,omitempty"`
	Repeats   int               `json:"repeats,omitempty"`
}

func restoreCrashes(cjs []crashJSON) []*triage.Crash {
	out := make([]*triage.Crash, 0, len(cjs))
	for _, cj := range cjs {
		out = append(out, &triage.Crash{
			Kind:      cj.Kind,
			Process:   cj.Process,
			Component: cj.Component,
			Classes:   cj.Classes,
			Frames:    cj.Frames,
			Fault:     cj.Fault,
			Intent:    cj.Intent.restore(),
			Trace:     cj.Trace,
			Flight:    cj.Flight,
			Repeats:   cj.Repeats,
		})
	}
	return out
}

// The encoder. A record is rendered straight from the shard result into a
// jsonw.Writer, compact, with no wire-form structs built on the way: its
// bytes are exactly json.Marshal(recordOf(idx, sr))'s (recordOf lives with
// the tests, which hold encoding/json as the oracle), so the field order,
// the omitempty choices and the nil-versus-empty cases below follow the
// struct tags above. A field added to a wire type must be written here too.

// writeRecord renders shard idx's record.
func writeRecord(w *jsonw.Writer, idx int, sr *ShardResult) {
	w.Open('{')
	w.Key("index")
	w.Int(idx)
	w.Key("key")
	w.Open('{')
	w.Key("campaign")
	w.Int(int(sr.Key.Campaign))
	w.Key("package")
	w.Str(sr.Key.Package)
	w.Close('}')
	w.Key("seed")
	w.Uint(sr.Seed)
	w.Key("sent")
	w.Int(sr.Sent)
	w.Key("bootCount")
	w.Int(sr.BootCount)
	w.Key("summary")
	writeSummary(w, &sr.Summary)
	w.Key("report")
	writeReport(w, sr.Report)
	if len(sr.Crashes) > 0 {
		w.Key("crashes")
		w.Open('[')
		for _, c := range sr.Crashes {
			w.Next()
			writeCrash(w, c)
		}
		w.Close(']')
	}
	w.Close('}')
}

func writeSummary(w *jsonw.Writer, s *core.Summary) {
	w.Open('{')
	w.Key("package")
	w.Str(s.Package)
	w.Key("campaign")
	w.Str(s.Campaign)
	w.Key("sent")
	w.Int(s.Sent)
	w.Key("noEffect")
	w.Int(s.NoEffect)
	w.Key("handled")
	w.Int(s.Handled)
	w.Key("rejected")
	w.Int(s.Rejected)
	w.Key("crashes")
	w.Int(s.Crashes)
	w.Key("anrs")
	w.Int(s.ANRs)
	w.Key("security")
	w.Int(s.Security)
	w.Key("notFound")
	w.Int(s.NotFound)
	w.Key("reboots")
	w.Int(s.Reboots)
	w.Key("bootCount")
	w.Int(s.BootCount)
	w.Close('}')
}

// writeReport renders r as reportJSON, components in ComponentNames order
// and null when there are none.
func writeReport(w *jsonw.Writer, r *analysis.Report) {
	w.Open('{')
	w.Key("components")
	if names := r.ComponentNames(); len(names) == 0 {
		w.Null()
	} else {
		w.Open('[')
		for _, cn := range names {
			w.Next()
			writeComponent(w, cn, r.Components[cn])
		}
		w.Close(']')
	}
	if len(r.RebootTimes) > 0 {
		w.Key("rebootTimes")
		jsonw.Array(w, r.RebootTimes, func(w *jsonw.Writer, t *time.Time) { w.Time(*t) })
	}
	if len(r.CoreServiceDeaths) > 0 {
		w.Key("coreServiceDeaths")
		w.Strings(r.CoreServiceDeaths)
	}
	w.Key("crashEvents")
	w.Int(r.CrashEvents)
	w.Key("anrEvents")
	w.Int(r.ANREvents)
	w.Key("securityEvents")
	w.Int(r.SecurityEvents)
	w.Key("entries")
	w.Int(r.Entries)
	w.Close('}')
}

func writeComponent(w *jsonw.Writer, cn intent.ComponentName, cr *analysis.ComponentReport) {
	w.Open('{')
	w.Key("package")
	w.Str(cn.Package)
	w.Key("class")
	w.Str(cn.Class)
	optString(w, "type", cr.Type)
	w.Key("deliveries")
	w.Int(cr.Deliveries)
	optInt(w, "security", cr.Security)
	optInt(w, "anrs", cr.ANRs)
	if cr.RebootInvolved {
		w.Key("rebootInvolved")
		w.Bool(true)
	}
	optClassCounts(w, "rejected", cr.Rejected)
	optClassCounts(w, "caught", cr.Caught)
	optClassCounts(w, "crashRoots", cr.CrashRoots)
	optClassCounts(w, "anrClasses", cr.ANRClasses)
	w.Close('}')
}

func writeCrash(w *jsonw.Writer, c *triage.Crash) {
	w.Open('{')
	optString(w, "kind", c.Kind)
	optString(w, "process", c.Process)
	optString(w, "component", c.Component)
	optStrings(w, "classes", c.Classes)
	optStrings(w, "frames", c.Frames)
	optString(w, "fault", c.Fault)
	if c.Intent != nil {
		w.Key("intent")
		writeIntent(w, c.Intent)
	}
	optString(w, "trace", c.Trace)
	if len(c.Flight) > 0 {
		w.Key("flight")
		jsonw.Array(w, c.Flight, (*jsonw.Writer).Event)
	}
	optInt(w, "repeats", c.Repeats)
	w.Close('}')
}

// writeIntent renders in as intentJSON: the URI, component name and
// bundle values carry no struct tags, so their members are the Go field
// names.
func writeIntent(w *jsonw.Writer, in *intent.Intent) {
	w.Open('{')
	optString(w, "action", in.Action)
	w.Key("data")
	writeURI(w, &in.Data)
	optStrings(w, "categories", in.Categories)
	optString(w, "type", in.Type)
	w.Key("component")
	w.Open('{')
	w.Key("Package")
	w.Str(in.Component.Package)
	w.Key("Class")
	w.Str(in.Component.Class)
	w.Close('}')
	if in.Flags != 0 {
		w.Key("flags")
		w.Uint(uint64(in.Flags))
	}
	if n := in.Extras.Len(); n > 0 {
		w.Key("extras")
		w.Open('[')
		for i := range n {
			k, v := in.Extras.At(i)
			w.Next()
			w.Open('{')
			w.Key("key")
			w.Str(k)
			w.Key("value")
			w.Open('{')
			w.Key("Kind")
			w.Int(int(v.Kind))
			w.Key("Str")
			w.Str(v.Str)
			w.Key("I64")
			w.Int64(v.I64)
			w.Key("F64")
			w.Float(v.F64)
			w.Key("B")
			w.Bool(v.B)
			w.Key("URI")
			writeURI(w, &v.URI)
			w.Close('}')
			w.Close('}')
		}
		w.Close(']')
	}
	w.Close('}')
}

func writeURI(w *jsonw.Writer, u *intent.URI) {
	w.Open('{')
	w.Key("Scheme")
	w.Str(u.Scheme)
	w.Key("Opaque")
	w.Str(u.Opaque)
	w.Key("Host")
	w.Str(u.Host)
	w.Key("Port")
	w.Str(u.Port)
	w.Key("Path")
	w.Str(u.Path)
	w.Key("Query")
	w.Str(u.Query)
	w.Key("Fragment")
	w.Str(u.Fragment)
	w.Close('}')
}

func optString(w *jsonw.Writer, name, s string) {
	if s != "" {
		w.Key(name)
		w.Str(s)
	}
}

func optStrings(w *jsonw.Writer, name string, s []string) {
	if len(s) > 0 {
		w.Key(name)
		w.Strings(s)
	}
}

func optInt(w *jsonw.Writer, name string, v int) {
	if v != 0 {
		w.Key(name)
		w.Int(v)
	}
}

func optClassCounts(w *jsonw.Writer, name string, m map[javalang.Class]int) {
	if len(m) > 0 {
		w.Key(name)
		jsonw.Object(w, m, (*jsonw.Writer).Int)
	}
}

// recordSizeHint bounds sr's encoded record length from above, unless its
// strings need escaping, so that encoding it grows the buffer at most once.
// The flight windows are nearly all of a record, so their events are
// counted field by field; the rest takes a generous constant per entry.
func recordSizeHint(sr *ShardResult) int {
	n := 512 + 2*len(sr.Key.Package)
	r := sr.Report
	for cn, cr := range r.Components {
		n += 200 + len(cn.Package) + len(cn.Class) + len(cr.Type)
		for _, m := range [...]map[javalang.Class]int{cr.Rejected, cr.Caught, cr.CrashRoots, cr.ANRClasses} {
			for k := range m {
				n += 16 + len(k)
			}
		}
	}
	n += len(`,"2006-01-02T15:04:05.999999999+07:00"`) * len(r.RebootTimes)
	for _, s := range r.CoreServiceDeaths {
		n += 3 + len(s)
	}
	for _, c := range sr.Crashes {
		n += 160 + len(c.Kind) + len(c.Process) + len(c.Component) + len(c.Fault) + len(c.Trace)
		for _, s := range c.Classes {
			n += 3 + len(s)
		}
		for _, s := range c.Frames {
			n += 3 + len(s)
		}
		if in := c.Intent; in != nil {
			n += 256 + len(in.Action) + len(in.Type) + uriSize(&in.Data) +
				len(in.Component.Package) + len(in.Component.Class)
			for _, s := range in.Categories {
				n += 3 + len(s)
			}
			for i := range in.Extras.Len() {
				k, v := in.Extras.At(i)
				n += 224 + len(k) + len(v.Str) + uriSize(&v.URI)
			}
		}
		for i := range c.Flight {
			n += jsonw.EventSize(&c.Flight[i], false, 0)
		}
	}
	return n
}

// uriSize is u's encoded length less its members' names and punctuation
// (the callers' constants cover those).
func uriSize(u *intent.URI) int {
	return len(u.Scheme) + len(u.Opaque) + len(u.Host) + len(u.Port) + len(u.Path) + len(u.Query) + len(u.Fragment)
}
