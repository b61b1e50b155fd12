// Incremental bucket streaming: the farm service wants triage buckets on
// the wire as shard results land, not only in the final merged report. A
// Stream folds batches of crash records (one batch per completed shard)
// into the same stack-hash buckets Bucketize builds and publishes an
// append-only update log that HTTP handlers replay from any cursor —
// long-poll or chunked, both reduce to "give me everything after N".
//
// The stream is a live view, not the scientific record: batches arrive in
// shard *completion* order, so counts observed mid-run depend on worker
// scheduling. The canonical, deterministic triage result is still produced
// by the post-merge Bucketize pass over canonical shard order; a finished
// stream and the final result agree on the bucket set and totals, just not
// on discovery order.
package triage

import (
	"context"
	"sync"

	"repro/internal/telemetry"
)

// BucketUpdate is one entry of the stream's update log: a bucket was born
// or grew. Updates carry everything a dashboard needs to render the bucket
// without a second request — including, on first sight, the exemplar's
// reproducer intent and flight-recorder window.
type BucketUpdate struct {
	// Cursor is this update's position in the log (first update = 1).
	// Replays are exclusive: Since(c) returns updates with Cursor > c.
	Cursor int `json:"cursor"`
	// Hash is the bucket's stack signature (Crash.Hash).
	Hash uint64 `json:"hash"`
	// New marks the bucket's first occurrence.
	New bool `json:"new,omitempty"`
	// Kind, Class, Frame mirror Bucket's signature fields.
	Kind  string `json:"kind,omitempty"`
	Class string `json:"class"`
	Frame string `json:"frame,omitempty"`
	// Count is the bucket's cumulative size after this update.
	Count int `json:"count"`
	// Exemplar renders the first reproducer intent seen for the bucket
	// (set when New, or on the update that first attaches one).
	Exemplar string `json:"exemplar,omitempty"`
	// Trace and Flight are the exemplar's flight-recorder forensics,
	// attached on the same update that carries the exemplar.
	Trace  string            `json:"trace,omitempty"`
	Flight []telemetry.Event `json:"flight,omitempty"`
}

// Stream folds crash batches into buckets incrementally and logs one
// update per batch-and-bucket. Safe for concurrent producers (shard
// completions) and consumers (HTTP watchers).
type Stream struct {
	mu      sync.Mutex
	buckets bucketSet
	// announced tracks per-bucket shipping state (see the *Sent consts) so
	// each exemplar's flight window crosses the wire exactly once.
	announced map[uint64]int
	log       []BucketUpdate
	closed    bool
	// waiters are woken (channel close) whenever the log grows or the
	// stream closes.
	waiters []chan struct{}
}

// NewStream returns an empty triage stream.
func NewStream() *Stream {
	return &Stream{announced: make(map[uint64]int)}
}

// Add folds one batch of crash records (typically one shard's crashes)
// into the buckets and appends one update per touched bucket. Empty
// batches append nothing and wake nobody.
func (s *Stream) Add(crashes []*Crash) {
	if len(crashes) == 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return
	}
	touched := make(map[uint64]bool)
	var touchOrder []uint64
	for _, c := range crashes {
		h := s.buckets.add(c)
		if !touched[h] {
			touched[h] = true
			touchOrder = append(touchOrder, h)
		}
	}
	for _, h := range touchOrder {
		b := s.buckets.byHash[h]
		up := BucketUpdate{
			Cursor: len(s.log) + 1,
			Hash:   h,
			New:    s.announced[h] == 0,
			Kind:   b.Kind,
			Class:  b.Class,
			Frame:  b.Frame,
			Count:  b.Count,
		}
		// Ship the exemplar (intent + flight window) the first time the
		// bucket has one to ship.
		if s.announced[h] < exemplarSent && b.Exemplar != nil && b.Exemplar.Intent != nil {
			up.Exemplar = b.Exemplar.Intent.String()
			up.Trace = b.Exemplar.Trace
			up.Flight = b.Exemplar.Flight
			s.announced[h] = exemplarSent
		} else if s.announced[h] == 0 {
			s.announced[h] = bucketSent
		}
		s.log = append(s.log, up)
	}
	s.wakeLocked()
}

// announced states (zero value = bucket never announced).
const (
	bucketSent   = 1 // bucket announced, exemplar not yet shipped
	exemplarSent = 2 // exemplar intent + flight shipped
)

// Since returns every update after cursor plus the new cursor and whether
// the stream is closed (no further updates will ever arrive).
func (s *Stream) Since(cursor int) ([]BucketUpdate, int, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if cursor < 0 {
		cursor = 0
	}
	if cursor > len(s.log) {
		cursor = len(s.log)
	}
	ups := make([]BucketUpdate, len(s.log)-cursor)
	copy(ups, s.log[cursor:])
	return ups, len(s.log), s.closed
}

// Wait blocks until an update after cursor exists, the stream closes, or
// ctx is done; it then behaves as Since. A cursor past the end of the log
// is clamped as Since clamps it, so it waits for the next Add. The
// returned closed flag lets a long-poll handler distinguish "no news yet"
// from "campaign over".
func (s *Stream) Wait(ctx context.Context, cursor int) ([]BucketUpdate, int, bool) {
	for {
		s.mu.Lock()
		cursor = min(cursor, len(s.log))
		if len(s.log) > cursor || s.closed {
			s.mu.Unlock()
			return s.Since(cursor)
		}
		ch := make(chan struct{})
		s.waiters = append(s.waiters, ch)
		s.mu.Unlock()
		select {
		case <-ch:
		case <-ctx.Done():
			return s.Since(cursor)
		}
	}
}

// Close marks the stream complete and wakes every waiter. Further Adds are
// no-ops (a reclaimed lease's late result must not resurrect a finished
// campaign's stream).
func (s *Stream) Close() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.closed = true
	s.wakeLocked()
}

// Closed reports whether Close was called.
func (s *Stream) Closed() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.closed
}

// Snapshot returns the buckets accumulated so far as a Result, sorted with
// Bucketize's deterministic order (count desc, then class/frame/hash). The
// minimizer fields are zero: minimization only runs in the post-merge pass.
func (s *Stream) Snapshot() *Result {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.buckets.result()
}

// wakeLocked closes all waiter channels; callers hold s.mu.
func (s *Stream) wakeLocked() {
	for _, ch := range s.waiters {
		close(ch)
	}
	s.waiters = nil
}
