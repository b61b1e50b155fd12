// Live shard status: a StatusBoard is the scheduler's own shard table
// (pending, running, done, resumed, failed), served at the /farm HTTP
// endpoint so operators can watch a long sweep while it runs. The table
// decides only which shard runs next; results are merged in canonical plan
// order whatever the dispatch order, so it cannot perturb the determinism
// contract.
package farm

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/telemetry"
)

// Shard states as reported on ShardStatus.State.
const (
	StatePending = "pending"
	StateRunning = "running"
	StateDone    = "done"
	StateResumed = "resumed"
	StateFailed  = "failed"
)

// ShardStatus is one row of the live shard table.
type ShardStatus struct {
	Key   ShardKey `json:"key"`
	State string   `json:"state"`
	// Source is the boot path ("reuse", "clone" or "aging"); empty until
	// the shard completes. Resumed shards report no source — they were
	// never booted in this process.
	Source string `json:"source,omitempty"`
	// QueueWait is how long the shard sat in the queue before a worker
	// picked it up, in seconds.
	QueueWait float64 `json:"queueWaitSeconds,omitempty"`
	// Seconds is the shard's execution time once done.
	Seconds float64 `json:"seconds,omitempty"`
	// Sent is the number of intents the shard injected.
	Sent int `json:"sent,omitempty"`
	// Throughput is Sent/Seconds for executed shards.
	Throughput float64 `json:"intentsPerSecond,omitempty"`
}

// StatusSnapshot is the aggregated view served by StatusHandler.
type StatusSnapshot struct {
	Workers int           `json:"workers"`
	Total   int           `json:"total"`
	Pending int           `json:"pending"`
	Running int           `json:"running"`
	Done    int           `json:"done"`
	Resumed int           `json:"resumed"`
	Failed  int           `json:"failed"`
	Shards  []ShardStatus `json:"shards"`
	// IntentsTotal counts intents injected by shards executed in this
	// process (resumed shards contribute too — their work is part of the
	// run's output even though another process performed it).
	IntentsTotal int `json:"intentsTotal"`
	// IntentsPerSecond is the run-level throughput: intents executed in
	// this process over elapsed wall-clock time.
	IntentsPerSecond float64 `json:"intentsPerSecond"`
	ElapsedSeconds   float64 `json:"elapsedSeconds"`
	// ETASeconds estimates time to drain the remaining shards: remaining
	// count × mean executed-shard seconds ÷ workers. Zero until at least
	// one shard has executed.
	ETASeconds float64 `json:"etaSeconds"`
}

// StatusBoard is the shard table of one run: one row per shard with its
// state, the plan's LPT order, and each finished shard's result. It is the
// scheduler's own state, not a mirror of it: farm.Run's pool goroutines and
// the service coordinator's Lease both take work with Next, and the rows
// served at /farm are the same rows. The zero value is unusable; create one
// with NewStatusBoard (and pass it in Config.Status to watch a Run). All
// methods are safe for concurrent use; Status is also nil-safe.
type StatusBoard struct {
	mu      sync.Mutex
	workers int
	start   time.Time
	shards  []ShardStatus
	order   []int
	results []*ShardResult
	// metered holds the registries the board's derived gauges are
	// registered on (meterInto).
	metered map[*telemetry.Registry]bool
}

// NewStatusBoard returns an empty board; Track loads a plan into it.
func NewStatusBoard() *StatusBoard {
	return &StatusBoard{metered: make(map[*telemetry.Registry]bool)}
}

// Track (re)initializes the board as the table for plan p: every shard
// pending, none holding a result. Run and the service coordinator call it
// before any shard starts, including on resume.
func (b *StatusBoard) Track(p *Plan, workers int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.workers = workers
	b.start = time.Now()
	b.shards = make([]ShardStatus, len(p.shards))
	for i, k := range p.shards {
		b.shards[i] = ShardStatus{Key: k, State: StatePending}
	}
	b.order = p.order
	b.results = make([]*ShardResult, len(p.shards))
}

// meterInto registers the board's derived live-status gauges on reg: one
// collect hook refreshes them at scrape time from the board rather than on
// the shard hot path. It registers once per registry however many runs the
// board serves; each run re-Tracks the board, and the hook reads whichever
// run it holds.
func (b *StatusBoard) meterInto(reg *telemetry.Registry) {
	b.mu.Lock()
	done := b.metered[reg]
	b.metered[reg] = true
	b.mu.Unlock()
	if done {
		return
	}
	pending := reg.Gauge("farm_shards_pending")
	running := reg.Gauge("farm_shards_running")
	eta := reg.Gauge("farm_eta_seconds")
	rate := reg.Gauge("farm_intents_per_second")
	reg.OnCollect(func() {
		s := b.Tally()
		pending.Set(float64(s.Pending))
		running.Set(float64(s.Running))
		eta.Set(s.ETASeconds)
		rate.Set(s.IntentsPerSecond)
	})
}

// Resume moves a pending shard to resumed with the result restored from
// the checkpoint journal. Next never hands a resumed shard out.
func (b *StatusBoard) Resume(idx int, sr *ShardResult) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shards[idx].State == StatePending {
		b.shards[idx].State = StateResumed
		b.shards[idx].Sent = sr.Sent
		b.results[idx] = sr
	}
}

// Next moves the first pending shard in LPT order to running, recording
// how long it waited, and returns its index; ok is false when no shard is
// pending.
func (b *StatusBoard) Next(wait time.Duration) (idx int, ok bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, i := range b.order {
		if s := &b.shards[i]; s.State == StatePending {
			s.State = StateRunning
			s.QueueWait = wait.Seconds()
			return i, true
		}
	}
	return 0, false
}

// Requeue returns a running shard to pending, at its LPT place: its
// worker died, released it, or uploaded a record that could not be kept.
func (b *StatusBoard) Requeue(idx int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shards[idx].State == StateRunning {
		b.shards[idx] = ShardStatus{Key: b.shards[idx].Key, State: StatePending}
	}
}

// Done moves a running shard to done with its result, execution time and
// source (the boot path, or on the service the worker). It reports whether
// this transition finished the table, which is true exactly once.
func (b *StatusBoard) Done(idx int, sr *ShardResult, dur time.Duration, source string) (last bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	s := &b.shards[idx]
	if s.State != StateRunning {
		return false
	}
	s.State = StateDone
	s.Sent = sr.Sent
	s.Seconds = dur.Seconds()
	s.Source = source
	if s.Seconds > 0 {
		s.Throughput = float64(sr.Sent) / s.Seconds
	}
	b.results[idx] = sr
	t := summarize(b.shards, 0, 0)
	return t.Finished() == t.Total
}

// Fail moves a running shard to failed: its executor returned an error.
func (b *StatusBoard) Fail(idx int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.shards[idx].State == StateRunning {
		b.shards[idx].State = StateFailed
	}
}

// TakeResults returns the result slots, indexed by shard, for Plan.Merge
// and drops the board's hold on them; the rows keep serving Status.
func (b *StatusBoard) TakeResults() []*ShardResult {
	b.mu.Lock()
	defer b.mu.Unlock()
	out := b.results
	b.results = make([]*ShardResult, len(b.shards))
	return out
}

// Status returns an aggregated snapshot of the board. The Shards slice is
// a copy; callers may retain it.
func (b *StatusBoard) Status() StatusSnapshot {
	if b == nil {
		return StatusSnapshot{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := b.tallyLocked()
	snap.Shards = append([]ShardStatus(nil), b.shards...)
	return snap
}

// Tally is Status without the rows: the counts, intents, throughput and
// ETA alone.
func (b *StatusBoard) Tally() StatusSnapshot {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.tallyLocked()
}

func (b *StatusBoard) tallyLocked() StatusSnapshot {
	var elapsed float64
	if !b.start.IsZero() {
		elapsed = time.Since(b.start).Seconds()
	}
	return summarize(b.shards, b.workers, elapsed)
}

// Finished counts the shards holding a result: done here or resumed.
func (s StatusSnapshot) Finished() int { return s.Done + s.Resumed }

// summarize is the one tally over shard rows, for the whole board and for
// one campaign's rows alike. ETA is the remaining count × the mean
// executed-shard seconds ÷ workers.
func summarize(rows []ShardStatus, workers int, elapsed float64) StatusSnapshot {
	s := StatusSnapshot{Workers: workers, Total: len(rows), ElapsedSeconds: elapsed}
	var execSeconds float64
	for _, r := range rows {
		switch r.State {
		case StatePending:
			s.Pending++
		case StateRunning:
			s.Running++
		case StateDone:
			s.Done++
			execSeconds += r.Seconds
		case StateResumed:
			s.Resumed++
		case StateFailed:
			s.Failed++
		}
		s.IntentsTotal += r.Sent
	}
	if elapsed > 0 {
		s.IntentsPerSecond = float64(s.IntentsTotal) / elapsed
	}
	if s.Done > 0 {
		mean := execSeconds / float64(s.Done)
		s.ETASeconds = float64(s.Pending+s.Running) * mean / float64(max(workers, 1))
	}
	return s
}

// FilterCampaign narrows the snapshot to the shards of one campaign
// letter (case-insensitive). ok reports whether the plan contains that
// campaign at all; when it does, the tallies are recomputed over the
// filtered rows so the view reads as a self-consistent per-campaign table.
func (s StatusSnapshot) FilterCampaign(letter string) (StatusSnapshot, bool) {
	want := strings.ToUpper(strings.TrimSpace(letter))
	var rows []ShardStatus
	for _, sh := range s.Shards {
		if sh.Key.Campaign.Letter() == want {
			rows = append(rows, sh)
		}
	}
	out := summarize(rows, s.Workers, s.ElapsedSeconds)
	out.Shards = rows
	return out, len(rows) > 0
}

// StatusHandler serves the board as indented JSON — mount it on the
// telemetry server as the /farm route. A nil board serves the zero
// snapshot, so wiring can be unconditional. A ?letter=<letter> query
// narrows the table to one campaign's shards; a letter the plan does not
// contain answers 404 with a JSON error body.
func StatusHandler(b *StatusBoard) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := b.Status()
		if letter := r.URL.Query().Get("letter"); letter != "" {
			filtered, ok := snap.FilterCampaign(letter)
			if !ok {
				w.Header().Set("Content-Type", "application/json; charset=utf-8")
				w.WriteHeader(http.StatusNotFound)
				json.NewEncoder(w).Encode(map[string]string{
					"error": fmt.Sprintf("unknown campaign %q: not in this run's shard plan", letter),
				})
				return
			}
			snap = filtered
		}
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(snap)
	})
}
