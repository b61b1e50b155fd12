// Live shard status: a StatusBoard mirrors the farm scheduler's view of
// every shard (pending, running, done, resumed, failed) so operators can
// watch a long sweep from the /farm HTTP endpoint while it runs. The board
// is presentation-only — the farm updates it with fire-and-forget marks and
// never reads it back, so it cannot perturb the determinism contract.
package farm

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strings"
	"sync"
	"time"
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
	// Source is the boot path ("reuse" or "clone"); empty until the shard
	// completes. Resumed shards report no source — they were never
	// booted in this process.
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

// StatusBoard tracks per-shard progress for a single farm run. The zero
// value is unusable; create one with NewStatusBoard and pass it in
// Config.Status. All methods are safe for concurrent use and nil-safe, so
// the farm can mark unconditionally.
type StatusBoard struct {
	mu      sync.Mutex
	workers int
	start   time.Time
	shards  []ShardStatus
	// execSeconds/execCount average executed (non-resumed) shard duration
	// for the ETA estimate.
	execSeconds float64
	execCount   int
	intents     int
}

// NewStatusBoard returns an empty board; the farm populates it via
// Config.Status at Run time.
func NewStatusBoard() *StatusBoard { return &StatusBoard{} }

// Track (re)initializes the board for a shard plan. Run and the service
// coordinator call it before any shard starts, including on resume.
func (b *StatusBoard) Track(plan []ShardKey, workers int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	b.workers = workers
	b.start = time.Now()
	b.shards = make([]ShardStatus, len(plan))
	for i, k := range plan {
		b.shards[i] = ShardStatus{Key: k, State: StatePending}
	}
	b.execSeconds, b.execCount, b.intents = 0, 0, 0
}

// MarkResumed records a shard restored from the checkpoint journal.
func (b *StatusBoard) MarkResumed(idx, sent int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= len(b.shards) {
		return
	}
	b.shards[idx].State = StateResumed
	b.shards[idx].Sent = sent
	b.intents += sent
}

// MarkRunning records a worker picking the shard up after wait in queue.
func (b *StatusBoard) MarkRunning(idx int, wait time.Duration) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= len(b.shards) {
		return
	}
	b.shards[idx].State = StateRunning
	b.shards[idx].QueueWait = wait.Seconds()
}

// MarkDone records a completed shard: intents sent, execution time, and
// which boot path (or, on the service, which worker) produced it.
func (b *StatusBoard) MarkDone(idx, sent int, dur time.Duration, source string) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= len(b.shards) {
		return
	}
	s := &b.shards[idx]
	s.State = StateDone
	s.Sent = sent
	s.Seconds = dur.Seconds()
	s.Source = source
	if s.Seconds > 0 {
		s.Throughput = float64(sent) / s.Seconds
	}
	b.execSeconds += s.Seconds
	b.execCount++
	b.intents += sent
}

// MarkFailed records a shard whose worker returned an error.
func (b *StatusBoard) MarkFailed(idx int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= len(b.shards) {
		return
	}
	b.shards[idx].State = StateFailed
}

// MarkPending returns a shard to the queue — the service coordinator's
// lease-reclamation path (a worker died holding the shard; its work is
// discarded and the shard becomes grantable again).
func (b *StatusBoard) MarkPending(idx int) {
	if b == nil {
		return
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	if idx < 0 || idx >= len(b.shards) {
		return
	}
	b.shards[idx] = ShardStatus{Key: b.shards[idx].Key, State: StatePending}
}

// Status returns an aggregated snapshot of the board. The Shards slice is
// a copy; callers may retain it.
func (b *StatusBoard) Status() StatusSnapshot {
	if b == nil {
		return StatusSnapshot{}
	}
	b.mu.Lock()
	defer b.mu.Unlock()
	snap := StatusSnapshot{
		Workers:      b.workers,
		Total:        len(b.shards),
		Shards:       append([]ShardStatus(nil), b.shards...),
		IntentsTotal: b.intents,
	}
	for _, s := range b.shards {
		switch s.State {
		case StatePending:
			snap.Pending++
		case StateRunning:
			snap.Running++
		case StateDone:
			snap.Done++
		case StateResumed:
			snap.Resumed++
		case StateFailed:
			snap.Failed++
		}
	}
	if !b.start.IsZero() {
		snap.ElapsedSeconds = time.Since(b.start).Seconds()
	}
	if snap.ElapsedSeconds > 0 {
		snap.IntentsPerSecond = float64(b.intents) / snap.ElapsedSeconds
	}
	if b.execCount > 0 {
		remaining := snap.Pending + snap.Running
		workers := b.workers
		if workers < 1 {
			workers = 1
		}
		mean := b.execSeconds / float64(b.execCount)
		snap.ETASeconds = float64(remaining) * mean / float64(workers)
	}
	return snap
}

// FilterCampaign narrows the snapshot to the shards of one campaign
// letter (case-insensitive). ok reports whether the plan contains that
// campaign at all; when it does, the aggregate tallies (total, state
// counts, intents, throughput, ETA) are recomputed over the filtered rows
// so the view reads as a self-consistent per-campaign table.
func (s StatusSnapshot) FilterCampaign(letter string) (StatusSnapshot, bool) {
	want := strings.ToUpper(strings.TrimSpace(letter))
	out := StatusSnapshot{Workers: s.Workers, ElapsedSeconds: s.ElapsedSeconds}
	var execSeconds float64
	execCount := 0
	for _, sh := range s.Shards {
		if sh.Key.Campaign.Letter() != want {
			continue
		}
		out.Shards = append(out.Shards, sh)
		out.Total++
		switch sh.State {
		case StatePending:
			out.Pending++
		case StateRunning:
			out.Running++
		case StateDone:
			out.Done++
			execSeconds += sh.Seconds
			execCount++
		case StateResumed:
			out.Resumed++
		case StateFailed:
			out.Failed++
		}
		out.IntentsTotal += sh.Sent
	}
	if out.Total == 0 {
		return out, false
	}
	if out.ElapsedSeconds > 0 {
		out.IntentsPerSecond = float64(out.IntentsTotal) / out.ElapsedSeconds
	}
	if execCount > 0 {
		workers := s.Workers
		if workers < 1 {
			workers = 1
		}
		mean := execSeconds / float64(execCount)
		out.ETASeconds = float64(out.Pending+out.Running) * mean / float64(workers)
	}
	return out, true
}

// StatusHandler serves the board as indented JSON — mount it on the
// telemetry server as the /farm route. A nil board serves the zero
// snapshot, so wiring can be unconditional. A ?campaign=<letter> query
// narrows the table to one campaign's shards; a letter the plan does not
// contain answers 404 with a JSON error body.
func StatusHandler(b *StatusBoard) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		snap := b.Status()
		if letter := r.URL.Query().Get("campaign"); letter != "" {
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
