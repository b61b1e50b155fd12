package service

import (
	"repro/internal/farm"
	"repro/internal/report"
)

// ExportResult renders a merged farm result as the canonical
// machine-readable study export (internal/report's stable JSON schema).
// The export carries only the scientific outputs — campaign counts,
// combined figures, triage buckets with their flight windows — which are
// functions of the spec alone, so this rendering is byte-identical whether
// the campaign ran on one process, one worker, or a fleet of workers with
// mid-run deaths. The service's acceptance tests and the verify.sh smoke
// diff exactly these bytes.
func ExportResult(res *farm.Result, seed uint64) ([]byte, error) {
	exp := report.ExportStudy(res, seed)
	return report.MarshalStudy(&exp)
}
