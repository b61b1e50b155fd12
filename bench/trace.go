package main

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
	"time"
)

// span is one interval the benchmark timed around a call into a layer. The
// spans of one shard (or UI mode) share a Trace ID, the farm's shard key.
type span struct {
	Name   string `json:"name"`
	Trace  string `json:"trace,omitempty"`
	Parent int    `json:"parent"` // index of the enclosing span; -1 for a root
	Lane   int    `json:"lane"`   // timeline row in the trace viewer
	Start  int64  `json:"start"`  // nanoseconds since the tracer's epoch
	End    int64  `json:"end"`
	// Agg marks the total of many short intervals inside the parent (a logcat
	// sink's per-line calls), laid end to end from the parent's start: the
	// duration is measured, the position is nominal.
	Agg bool `json:"agg,omitempty"`
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory until the run ends. Safe for concurrent use:
// the service middleware records from the HTTP server's goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) at(tm time.Time) int64 { return int64(tm.Sub(t.epoch)) }

// begin opens a span on the calling goroutine's lane 0 and returns its ID.
func (t *tracer) begin(name, trace string, parent int) int {
	return t.add(span{Name: name, Trace: trace, Parent: parent, Start: t.at(time.Now())})
}

// end closes a span opened by begin.
func (t *tracer) end(id int) {
	now := t.at(time.Now())
	t.mu.Lock()
	t.spans[id].End = now
	t.mu.Unlock()
}

// add records a complete span and returns its ID.
func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return len(t.spans) - 1
}

// aggregate records accumulated durations as Agg children of parent.
func (t *tracer) aggregate(parent int, trace string, names []string, durs []time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	at := t.spans[parent].Start
	for i, name := range names {
		d := int64(durs[i])
		t.spans = append(t.spans, span{Name: name, Trace: trace, Parent: parent, Start: at, End: at + d, Agg: true})
		at += d
	}
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// selfTimes returns, for each span, its duration minus the part of it that
// its children cover. Children may overlap one another (two workers' shards)
// or run on other goroutines; the covered part is the union of their
// intervals, clipped to the parent, so overlap is never subtracted twice.
func selfTimes(spans []span) []int64 {
	children := make([][]int, len(spans))
	for i, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], i)
		}
	}
	self := make([]int64, len(spans))
	for i, s := range spans {
		type iv struct{ lo, hi int64 }
		var ivs []iv
		for _, c := range children[i] {
			lo, hi := max(spans[c].Start, s.Start), min(spans[c].End, s.End)
			if hi > lo {
				ivs = append(ivs, iv{lo, hi})
			}
		}
		sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
		var covered int64
		curLo, curHi := int64(0), int64(-1)
		for _, v := range ivs {
			if v.lo > curHi {
				if curHi > curLo {
					covered += curHi - curLo
				}
				curLo, curHi = v.lo, v.hi
			} else if v.hi > curHi {
				curHi = v.hi
			}
		}
		if curHi > curLo {
			covered += curHi - curLo
		}
		self[i] = s.dur() - covered
	}
	return self
}

// selfSeconds sums self time by span name over the spans under root
// (root itself included).
func selfSeconds(spans []span, root int) map[string]float64 {
	self := selfTimes(spans)
	out := make(map[string]float64)
	for i, s := range spans {
		if under(spans, i, root) {
			out[s.Name] += time.Duration(self[i]).Seconds()
		}
	}
	return out
}

// under reports whether span i is root or one of its descendants.
func under(spans []span, i, root int) bool {
	for ; i >= 0; i = spans[i].Parent {
		if i == root {
			return true
		}
	}
	return false
}

// coverage is the share of root's wall time that its descendants' self
// times account for: 1 minus root's own unattributed self time.
func coverage(spans []span, root int) float64 {
	d := spans[root].dur()
	if d <= 0 {
		return 0
	}
	return 1 - float64(selfTimes(spans)[root])/float64(d)
}

// chromeEvent is one Chrome trace-event record (the JSON format Perfetto and
// chrome://tracing open).
type chromeEvent struct {
	Name  string         `json:"name"`
	Phase string         `json:"ph"`
	TS    float64        `json:"ts"` // microseconds
	Dur   float64        `json:"dur,omitempty"`
	PID   int            `json:"pid"`
	TID   int            `json:"tid"`
	Args  map[string]any `json:"args,omitempty"`
}

// tracedProcess is one workload's spans, shown as one process in the viewer.
type tracedProcess struct {
	Name  string
	Spans []span
}

// writeChromeTrace renders the spans as complete ("X") events, one process
// per workload and one thread per lane.
func writeChromeTrace(w io.Writer, procs []tracedProcess) error {
	events := []chromeEvent{}
	for p, proc := range procs {
		pid := p + 1
		events = append(events, chromeEvent{Name: "process_name", Phase: "M", PID: pid,
			Args: map[string]any{"name": proc.Name}})
		for _, s := range proc.Spans {
			args := map[string]any{}
			if s.Trace != "" {
				args["trace"] = s.Trace
			}
			if s.Parent >= 0 {
				args["parent"] = proc.Spans[s.Parent].Name
			}
			if s.Agg {
				args["aggregated"] = true
			}
			events = append(events, chromeEvent{Name: s.Name, Phase: "X", PID: pid, TID: s.Lane,
				TS: float64(s.Start) / 1e3, Dur: float64(s.dur()) / 1e3, Args: args})
		}
	}
	return json.NewEncoder(w).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
}
