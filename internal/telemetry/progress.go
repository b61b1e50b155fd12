package telemetry

import (
	"fmt"
	"io"
	"sync"
	"time"
)

// Progress rate-limits one-line status output: Tickf prints at most once
// per interval, Flush prints the last line it suppressed. Safe for
// concurrent use. Long
// campaigns call Tickf from their progress callbacks and get a heartbeat
// on stderr without flooding it.
type Progress struct {
	mu    sync.Mutex
	w     io.Writer
	every time.Duration
	start time.Time
	last  time.Time
	// pending buffers the most recent suppressed line so Flush can emit it
	// when the campaign ends between intervals.
	pending string
}

// NewProgress returns a progress printer writing to w at most once per
// every (2s when every <= 0). The first Tickf always prints, so a run
// shorter than the interval still produces one line of feedback.
func NewProgress(w io.Writer, every time.Duration) *Progress {
	if every <= 0 {
		every = 2 * time.Second
	}
	now := time.Now()
	return &Progress{w: w, every: every, start: now, last: now.Add(-every)}
}

// Elapsed returns the wall time since the printer was created.
func (p *Progress) Elapsed() time.Duration {
	if p == nil {
		return 0
	}
	return time.Since(p.start)
}

// Tickf prints the formatted line if the interval elapsed since the last
// print; it reports whether it printed. A nil Progress no-ops.
func (p *Progress) Tickf(format string, args ...any) bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	now := time.Now()
	if now.Sub(p.last) < p.every {
		// Keep the freshest suppressed line; a run that ends before the
		// next interval flushes it instead of losing the final state.
		p.pending = fmt.Sprintf(format, args...)
		p.mu.Unlock()
		return false
	}
	p.last = now
	p.pending = ""
	p.mu.Unlock()
	fmt.Fprintf(p.w, format+"\n", args...)
	return true
}

// Flush prints the most recent line Tickf suppressed, if any, and reports
// whether it printed. Campaigns call it on completion so the last heartbeat
// (the one carrying the final counts) is never swallowed by rate limiting.
func (p *Progress) Flush() bool {
	if p == nil {
		return false
	}
	p.mu.Lock()
	line := p.pending
	p.pending = ""
	if line != "" {
		p.last = time.Now()
	}
	p.mu.Unlock()
	if line == "" {
		return false
	}
	fmt.Fprintln(p.w, line)
	return true
}
