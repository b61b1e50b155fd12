package triage

import (
	"repro/internal/analysis"
	"repro/internal/logcat"
)

// ShardSink is the log sink of a fuzzing unit: it decodes each line once,
// with one full decoder, and hands the event to the unit's analysis
// collector and then to its triage collector. Subscribing the two
// collectors separately would decode every line twice. It observes each
// entry in place, in its ring slot.
type ShardSink struct {
	dec logcat.Decoder
	col *analysis.Collector
	tri *Collector
}

var _ logcat.Sink = (*ShardSink)(nil)

// NewShardSink returns the sink feeding col and tri; a nil tri feeds col
// alone.
func NewShardSink(col *analysis.Collector, tri *Collector) *ShardSink {
	return &ShardSink{col: col, tri: tri}
}

// Consume implements logcat.Sink.
func (s *ShardSink) Consume(e *logcat.Entry) {
	ev := s.dec.Decode(e)
	s.col.Observe(e, ev)
	if s.tri != nil {
		s.tri.Observe(ev)
	}
}
