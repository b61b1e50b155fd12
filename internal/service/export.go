package service

import (
	"encoding/json"

	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/report"
)

// ExportResult renders a merged farm result as the canonical
// machine-readable study export (internal/report's stable JSON schema),
// with the execution metadata (sharding section) omitted: the scientific
// outputs — campaign counts, combined figures, triage buckets with their
// flight windows — are functions of the spec alone, so this rendering is
// byte-identical whether the campaign ran on one process, one worker, or a
// fleet of workers with mid-run deaths. The service's acceptance tests and
// the verify.sh smoke diff exactly these bytes.
func ExportResult(res *farm.Result, seed uint64) ([]byte, error) {
	sr := &experiments.StudyResult{
		Fleet:     res.Fleet,
		Campaigns: res.Campaigns,
		Combined:  res.Combined,
		Sent:      res.Sent,
		Triage:    res.Triage,
	}
	exp := report.ExportStudy(sr, seed)
	data, err := json.MarshalIndent(exp, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(data, '\n'), nil
}
