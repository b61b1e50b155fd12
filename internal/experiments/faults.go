package experiments

import (
	"sort"

	"repro/internal/triage"
)

// Fault-resilience roll-up for the fault-injection campaign (FIC F): the
// triage pipeline grades every fault window with a verdict — gracefully
// degraded-and-recovered, stalled, silently dropped data, or failed to
// recover — and this table folds those buckets into a per-(fault, app)
// graceful-degradation score, the campaign's analogue of Table III.

// FaultResilienceRow is one (fault kind, app) row of the resilience table.
type FaultResilienceRow struct {
	// Fault is the injected fault kind ("binder-dead", "sensor-stall", ...).
	Fault string
	// App is the package the campaign was running against when the fault's
	// windows were graded.
	App string
	// Windows is the number of graded fault windows behind this row.
	Windows int
	// Per-verdict window counts.
	Degraded         int
	Stalls           int
	SilentDrops      int
	FailedRecoveries int
	// Score is the graceful-degradation score in [0, 1]: full credit for a
	// visible failure that recovers, half for a hang-shaped one, a quarter
	// for silent data loss (the failure happened AND went unreported), and
	// none for a subsystem that never came back.
	Score float64
}

// Verdict weights behind FaultResilienceRow.Score.
const (
	scoreDegraded       = 1.0
	scoreStall          = 0.5
	scoreSilentDrop     = 0.25
	scoreFailedRecovery = 0.0
)

// FaultResilienceFromTriage derives the resilience table from a study's
// triage buckets. Rows are sorted by fault kind then app, so the table is a
// deterministic function of the (already deterministic) merged triage
// result; nil when no fault buckets exist.
func FaultResilienceFromTriage(t *triage.Result) []FaultResilienceRow {
	if t == nil {
		return nil
	}
	type key struct{ fault, app string }
	acc := make(map[key]*FaultResilienceRow)
	var order []key
	for i := range t.Buckets {
		b := &t.Buckets[i]
		var w float64
		switch b.Kind {
		case triage.KindDegraded:
			w = scoreDegraded
		case triage.KindStall:
			w = scoreStall
		case triage.KindSilentDrop:
			w = scoreSilentDrop
		case triage.KindFailedRecovery:
			w = scoreFailedRecovery
		default:
			continue // crash/ANR bucket
		}
		// Fault buckets carry the injected kind in Class and the app in
		// Frame (triage.Bucketize's fault labeling).
		k := key{fault: b.Class, app: b.Frame}
		row, ok := acc[k]
		if !ok {
			row = &FaultResilienceRow{Fault: k.fault, App: k.app}
			acc[k] = row
			order = append(order, k)
		}
		row.Windows += b.Count
		row.Score += w * float64(b.Count)
		switch b.Kind {
		case triage.KindDegraded:
			row.Degraded += b.Count
		case triage.KindStall:
			row.Stalls += b.Count
		case triage.KindSilentDrop:
			row.SilentDrops += b.Count
		case triage.KindFailedRecovery:
			row.FailedRecoveries += b.Count
		}
	}
	if len(order) == 0 {
		return nil
	}
	out := make([]FaultResilienceRow, 0, len(order))
	for _, k := range order {
		row := acc[k]
		row.Score /= float64(row.Windows)
		out = append(out, *row)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fault != out[j].Fault {
			return out[i].Fault < out[j].Fault
		}
		return out[i].App < out[j].App
	})
	return out
}
