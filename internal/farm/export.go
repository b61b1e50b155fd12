package farm

import (
	"time"

	"repro/internal/analysis"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/telemetry"
	"repro/internal/triage"
)

// Checkpoint wire forms. The journal must round-trip everything a completed
// shard contributes to the final merge — the analysis report, the QGJ
// summary, and the triage crash records — so a resumed run never re-executes
// finished work. analysis.Report is not directly JSON-serializable (its
// component map is keyed by a struct), so the farm flattens it here. Field
// names are part of the checkpoint format contract (docs/farm.md).

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

// exportReport flattens r with components in deterministic order.
func exportReport(r *analysis.Report) reportJSON {
	out := reportJSON{
		RebootTimes:       r.RebootTimes,
		CoreServiceDeaths: r.CoreServiceDeaths,
		CrashEvents:       r.CrashEvents,
		ANREvents:         r.ANREvents,
		SecurityEvents:    r.SecurityEvents,
		Entries:           r.Entries,
	}
	for _, cn := range r.ComponentNames() {
		cr := r.Components[cn]
		out.Components = append(out.Components, componentJSON{
			Package:        cn.Package,
			Class:          cn.Class,
			Type:           cr.Type,
			Deliveries:     cr.Deliveries,
			Security:       cr.Security,
			ANRs:           cr.ANRs,
			RebootInvolved: cr.RebootInvolved,
			Rejected:       dropEmpty(cr.Rejected),
			Caught:         dropEmpty(cr.Caught),
			CrashRoots:     dropEmpty(cr.CrashRoots),
			ANRClasses:     dropEmpty(cr.ANRClasses),
		})
	}
	return out
}

func dropEmpty(m map[javalang.Class]int) map[javalang.Class]int {
	if len(m) == 0 {
		return nil
	}
	return m
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

func exportIntent(in *intent.Intent) *intentJSON {
	if in == nil {
		return nil
	}
	out := &intentJSON{
		Action:     in.Action,
		Data:       in.Data,
		Categories: in.Categories,
		Type:       in.Type,
		Component:  in.Component,
		Flags:      in.Flags,
	}
	for i := range in.Extras.Len() {
		k, v := in.Extras.At(i)
		out.Extras = append(out.Extras, extraJSON{Key: k, Value: v})
	}
	return out
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

func exportCrashes(crashes []*triage.Crash) []crashJSON {
	out := make([]crashJSON, 0, len(crashes))
	for _, c := range crashes {
		out = append(out, crashJSON{
			Kind:      c.Kind,
			Process:   c.Process,
			Component: c.Component,
			Classes:   c.Classes,
			Frames:    c.Frames,
			Fault:     c.Fault,
			Intent:    exportIntent(c.Intent),
			Trace:     c.Trace,
			Flight:    c.Flight,
			Repeats:   c.Repeats,
		})
	}
	return out
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
