package report

import (
	"fmt"
	"io"

	"repro/internal/jsonw"
	"repro/internal/telemetry"
)

// The exports' JSON rendering, through the append-based jsonw.Writer. A
// shard plan's export runs to tens of megabytes, nearly all of it triage
// flight windows, and is rendered indented into one pre-sized buffer. Its
// bytes are exactly what json.MarshalIndent(v, "", "  ") gives for the same
// value (the tests hold encoding/json as the oracle): the writers here keep
// struct-tag field order, omitempty and null for a nil slice or map. A field
// added to an export type must be written here too: the oracle test on real
// exports fails until it is.

// MarshalStudy renders e as the canonical study export: the bytes of
// json.MarshalIndent(e, "", "  ") followed by a newline.
func MarshalStudy(e *StudyExport) ([]byte, error) {
	w := jsonw.Writer{B: make([]byte, 0, studySizeHint(e, 0)+1), Indent: true}
	writeStudy(&w, e)
	w.B = append(w.B, '\n')
	if err := w.Err(); err != nil {
		return nil, err
	}
	return w.B, nil
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
	w := jsonw.Writer{B: make([]byte, 0, size), Indent: true}
	w.Open('{')
	w.Key("wear")
	writeStudy(&w, &a.Wear)
	w.Key("phone")
	writeStudy(&w, &a.Phone)
	w.Key("ui")
	w.Open('{')
	w.Key("rows")
	jsonw.Array(&w, a.UI.Rows, writeUIRow)
	w.Close('}')
	w.Close('}')
	w.B = append(w.B, '\n')
	if err := w.Err(); err != nil {
		return fmt.Errorf("encode report JSON: %w", err)
	}
	_, err := out.Write(w.B)
	return err
}

func writeStudy(w *jsonw.Writer, e *StudyExport) {
	w.Open('{')
	w.Key("fleet")
	w.Str(e.Fleet)
	w.Key("seed")
	w.Uint(e.Seed)
	w.Key("intentsSent")
	w.Int(e.Sent)
	w.Key("reboots")
	w.Int(e.Reboots)
	w.Key("campaigns")
	jsonw.Array(w, e.Campaigns, writeCampaign)
	w.Key("combined")
	w.Open('{')
	w.Key("securityShare")
	w.Float(e.Combined.SecurityShare)
	w.Key("uncaughtClasses")
	jsonw.Array(w, e.Combined.Uncaught, writeClassCount)
	w.Key("crashClasses")
	jsonw.Array(w, e.Combined.CrashClasses, writeClassCount)
	w.Close('}')
	w.Key("tableIII")
	jsonw.Array(w, e.TableIII, writeTableIIIRow)
	w.Key("tableIV")
	jsonw.Array(w, e.TableIV, writeTableIVRow)
	w.Key("fig3a")
	jsonw.Object(w, e.Fig3a, (*jsonw.Writer).Int)
	w.Key("fig4CrashAppRate")
	jsonw.Object(w, e.Fig4, (*jsonw.Writer).Float)
	w.Key("rebootComponents")
	w.Strings(e.Reboot)
	if e.Telemetry != nil {
		w.Key("telemetry")
		writeTelemetry(w, e.Telemetry)
	}
	if e.Triage != nil {
		w.Key("triage")
		writeTriage(w, e.Triage)
	}
	if len(e.FaultResilience) > 0 {
		w.Key("faultResilience")
		jsonw.Array(w, e.FaultResilience, writeFaultRow)
	}
	w.Close('}')
}

func writeCampaign(w *jsonw.Writer, c *CampaignExport) {
	w.Open('{')
	w.Key("campaign")
	w.Str(c.Campaign)
	w.Key("sent")
	w.Int(c.Sent)
	w.Key("crashEvents")
	w.Int(c.Crashes)
	w.Key("anrEvents")
	w.Int(c.ANRs)
	w.Key("securityEvents")
	w.Int(c.Security)
	w.Key("reboots")
	w.Int(c.Reboots)
	w.Close('}')
}

func writeClassCount(w *jsonw.Writer, c *ClassCountExport) {
	w.Open('{')
	w.Key("class")
	w.Str(c.Class)
	w.Key("count")
	w.Int(c.Count)
	w.Close('}')
}

func writeTableIIIRow(w *jsonw.Writer, r *TableIIIExportRow) {
	w.Open('{')
	w.Key("campaign")
	w.Str(r.Campaign)
	w.Key("category")
	w.Str(r.Category)
	w.Key("reboot")
	w.Float(r.Reboot)
	w.Key("crash")
	w.Float(r.Crash)
	w.Key("hang")
	w.Float(r.Hang)
	w.Key("noEffect")
	w.Float(r.NoEffect)
	w.Close('}')
}

func writeTableIVRow(w *jsonw.Writer, r *TableIVExportRow) {
	w.Open('{')
	w.Key("class")
	w.Str(r.Class)
	w.Key("crashes")
	w.Int(r.Crashes)
	w.Key("share")
	w.Float(r.Share)
	w.Close('}')
}

func writeFaultRow(w *jsonw.Writer, r *FaultResilienceExportRow) {
	w.Open('{')
	w.Key("fault")
	w.Str(r.Fault)
	w.Key("app")
	w.Str(r.App)
	w.Key("windows")
	w.Int(r.Windows)
	if r.Degraded != 0 {
		w.Key("degradedRecovered")
		w.Int(r.Degraded)
	}
	if r.Stalls != 0 {
		w.Key("stalls")
		w.Int(r.Stalls)
	}
	if r.SilentDrops != 0 {
		w.Key("silentDrops")
		w.Int(r.SilentDrops)
	}
	if r.FailedRecoveries != 0 {
		w.Key("failedRecoveries")
		w.Int(r.FailedRecoveries)
	}
	w.Key("score")
	w.Float(r.Score)
	w.Close('}')
}

func writeTelemetry(w *jsonw.Writer, s *telemetry.Snapshot) {
	w.Open('{')
	if len(s.Counters) > 0 {
		w.Key("counters")
		jsonw.Object(w, s.Counters, (*jsonw.Writer).Uint)
	}
	if len(s.Gauges) > 0 {
		w.Key("gauges")
		jsonw.Object(w, s.Gauges, (*jsonw.Writer).Float)
	}
	if len(s.Histograms) > 0 {
		w.Key("histograms")
		jsonw.Object(w, s.Histograms, writeHistogram)
	}
	w.Close('}')
}

func writeHistogram(w *jsonw.Writer, h telemetry.HistogramSnapshot) {
	w.Open('{')
	w.Key("count")
	w.Uint(h.Count)
	w.Key("sum")
	w.Float(h.Sum)
	w.Key("p50")
	w.Float(h.P50)
	w.Key("p95")
	w.Float(h.P95)
	w.Key("p99")
	w.Float(h.P99)
	w.Close('}')
}

func writeTriage(w *jsonw.Writer, t *TriageExport) {
	w.Open('{')
	w.Key("rawCrashes")
	w.Int(t.RawCrashes)
	if t.RawANRs != 0 {
		w.Key("rawANRs")
		w.Int(t.RawANRs)
	}
	if t.RawFaults != 0 {
		w.Key("rawFaultVerdicts")
		w.Int(t.RawFaults)
	}
	w.Key("uniqueSignatures")
	w.Int(t.Unique)
	w.Key("buckets")
	jsonw.Array(w, t.Buckets, writeBucket)
	w.Close('}')
}

func writeBucket(w *jsonw.Writer, b *TriageBucketExport) {
	w.Open('{')
	w.Key("hash")
	w.Str(b.Hash)
	if b.Kind != "" {
		w.Key("kind")
		w.Str(b.Kind)
	}
	w.Key("count")
	w.Int(b.Count)
	w.Key("class")
	w.Str(b.Class)
	if b.Frame != "" {
		w.Key("frame")
		w.Str(b.Frame)
	}
	if b.Exemplar != "" {
		w.Key("exemplar")
		w.Str(b.Exemplar)
	}
	if b.Minimized != "" {
		w.Key("minimized")
		w.Str(b.Minimized)
	}
	w.Key("reproduced")
	w.Bool(b.Reproduced)
	if b.Trials != 0 {
		w.Key("minimizerTrials")
		w.Int(b.Trials)
	}
	if b.Trace != "" {
		w.Key("trace")
		w.Str(b.Trace)
	}
	if len(b.Flight) > 0 {
		w.Key("flight")
		jsonw.Array(w, b.Flight, (*jsonw.Writer).Event)
	}
	w.Close('}')
}

func writeUIRow(w *jsonw.Writer, r *UIExportRow) {
	w.Open('{')
	w.Key("experiment")
	w.Str(r.Experiment)
	w.Key("injectedEvents")
	w.Int(r.InjectedEvents)
	w.Key("exceptionsRaised")
	w.Int(r.Exceptions)
	w.Key("exceptionRate")
	w.Float(r.ExceptionRate)
	w.Key("crashes")
	w.Int(r.Crashes)
	w.Key("crashRate")
	w.Float(r.CrashRate)
	w.Key("systemCrashes")
	w.Int(r.SystemCrashes)
	w.Close('}')
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
				n += jsonw.EventSize(&b.Flight[j], true, depth+5)
			}
		}
	}
	return n + n/256
}
