// Package triage deduplicates and reduces the crashes a fuzzing campaign
// produces. Million-intent campaigns generate far more FATAL EXCEPTION
// blocks than defects: the same root cause fires once per delivery. Large
// fault-injection studies on Android (Cotroneo et al.) make their results
// analyzable by bucketing failures by stack signature and reporting unique
// counts next to raw counts; this package implements that pipeline for the
// reproduction: a streaming collector that turns the logcat decoder's
// fatal-block, ANR and fault-verdict events into failure records (the
// decoder, not this package, reassembles FATAL EXCEPTION blocks),
// stack-hash bucketing (root exception class + root stack frame), exemplar
// selection, and a greedy intent minimizer that drops extras and fields
// while the crash still reproduces.
package triage

import (
	"hash/fnv"
	"sort"

	"repro/internal/intent"
	"repro/internal/logcat"
	"repro/internal/telemetry"
)

// Failure record kinds (Crash.Kind). The fault kinds are the graded
// verdicts of the fault-injection campaign (FIC F); their values must match
// internal/faultinject's verdict strings, which arrive here through the
// FaultInject VERDICT logcat line.
const (
	KindCrash = "crash"
	KindANR   = "anr"
	// KindStall: a fault window manifested as timeouts/hangs.
	KindStall = "stall"
	// KindSilentDrop: no error surfaced but data was lost or frozen.
	KindSilentDrop = "silent-drop"
	// KindFailedRecovery: the subsystem stayed unhealthy after the fault
	// window ended.
	KindFailedRecovery = "failed-recovery"
	// KindDegraded: the subsystem failed visibly during the window and
	// recovered after it — graceful degradation.
	KindDegraded = "degraded-recovered"
)

// Crash is one reassembled failure record: a FATAL EXCEPTION occurrence or
// an ANR (the type name predates ANR support; both flow through the same
// bucketing pipeline, mirroring how the paper counts both manifestations).
type Crash struct {
	// Kind discriminates the record: KindCrash (or "", for records built
	// before ANRs became first-class) versus KindANR.
	Kind string
	// Process is the failing process name (from the "Process: <name>, PID"
	// trace line for crashes, the "ANR in <proc>" line for ANRs).
	Process string
	// Component is the flat component name the ANR line attributes
	// ("ANR in proc (component)"); empty for crash records, whose identity
	// is the stack, not the component.
	Component string
	// Classes lists the exception chain classes, outermost wrapper first,
	// root cause last — the order ART prints them. Empty for ANRs.
	Classes []string
	// Frames are the root-cause exception's stack frames, innermost first,
	// normalized to "pkg.Class.method" (file/line stripped: line numbers
	// shift between builds, the frame identity does not).
	Frames []string
	// Fault is the injected fault kind behind a fault-verdict record
	// ("binder-dead", "sensor-stall", ...); empty for crashes and ANRs.
	Fault string
	// Intent, when non-nil, is the injected intent that produced this crash
	// (attached by the injector's Observe hook; reproducer for the
	// minimizer).
	Intent *intent.Intent
	// Trace is the campaign trace ID active when the failure happened
	// (attached with Flight).
	Trace string
	// Flight is the flight-recorder window snapshotted at the failure:
	// the structured events leading up to and ending at it. The collector
	// keeps it only on records that can become a bucket's exemplar (see
	// Collector.WantsFlight).
	Flight []telemetry.Event
	// Repeats counts the records this one stands for besides itself: Fold
	// merges a shard's records that can never become an exemplar into the
	// first record of their bucket and kind. Zero means the record stands
	// only for itself.
	Repeats int
}

// Weight is how many raw failure records c stands for (1+Repeats).
func (c *Crash) Weight() int { return 1 + c.Repeats }

// IsANR reports whether the record is an ANR rather than a crash.
func (c *Crash) IsANR() bool { return c.Kind == KindANR }

// IsFault reports whether the record is a graded fault-injection verdict
// rather than an exception-style failure.
func (c *Crash) IsFault() bool {
	switch c.Kind {
	case KindStall, KindSilentDrop, KindFailedRecovery, KindDegraded:
		return true
	}
	return false
}

// RootClass returns the root-cause exception class ("" for an empty record).
func (c *Crash) RootClass() string {
	if len(c.Classes) == 0 {
		return ""
	}
	return c.Classes[len(c.Classes)-1]
}

// RootFrame returns the top frame of the root-cause exception ("" when the
// trace carried no frames).
func (c *Crash) RootFrame() string {
	if len(c.Frames) == 0 {
		return ""
	}
	return c.Frames[0]
}

// Hash is the record's bucket signature. Crashes hash FNV-64a over the
// root exception class and the root stack frame: two crashes with the same
// root frame bucket together regardless of message text, wrapper
// exceptions, or which component crashed. ANRs have no stack; they hash
// over the "anr" sentinel and the wedged component, so each component that
// ANRs gets its own bucket. Fault verdicts hash over (verdict, fault, app),
// so each (fault, app) pair buckets per graded outcome. Crash and ANR
// hashes are unchanged by fault support.
func (c *Crash) Hash() uint64 {
	h := fnv.New64a()
	if c.IsANR() {
		_, _ = h.Write([]byte(KindANR))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(c.Component))
		return h.Sum64()
	}
	if c.IsFault() {
		_, _ = h.Write([]byte(c.Kind))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(c.Fault))
		_, _ = h.Write([]byte{0})
		_, _ = h.Write([]byte(c.Process))
		return h.Sum64()
	}
	_, _ = h.Write([]byte(c.RootClass()))
	_, _ = h.Write([]byte{0})
	_, _ = h.Write([]byte(c.RootFrame()))
	return h.Sum64()
}

// Bucket is one deduplicated failure signature.
type Bucket struct {
	Hash  uint64
	Count int
	// Kind mirrors the exemplar's record kind (KindCrash / KindANR).
	Kind string
	// Class and Frame are the shared root signature. ANR buckets, which
	// have no stack, show "ANR" and the wedged component instead.
	Class string
	Frame string
	// Exemplar is the first crash (in input order) that hit this bucket.
	Exemplar *Crash
	// Minimized is the reduced reproducer (set by a Minimize pass; nil when
	// the exemplar carried no intent or did not reproduce).
	Minimized *intent.Intent
	// Trials counts oracle invocations the minimizer spent on this bucket.
	Trials int
	// Reproduced reports whether the exemplar intent re-triggered the same
	// bucket on a fresh device.
	Reproduced bool
}

// Result is the outcome of a triage pass over a campaign's failures.
type Result struct {
	// Crashes is the raw failure record count — FATAL EXCEPTION events plus
	// ANRs plus fault verdicts — so Unique() <= Crashes always holds.
	Crashes int
	// ANRs is how many of those records are ANRs.
	ANRs int
	// Faults is how many of those records are graded fault-injection
	// verdicts (FIC F).
	Faults int
	// Buckets are the unique signatures, most frequent first (class, frame,
	// hash break ties deterministically).
	Buckets []Bucket
}

// Unique returns the number of distinct crash signatures.
func (r *Result) Unique() int {
	if r == nil {
		return 0
	}
	return len(r.Buckets)
}

// Count returns how many raw failure records crashes stand for: its
// length for a raw list, the sum of weights for a folded one.
func Count(crashes []*Crash) int {
	n := 0
	for _, c := range crashes {
		n += c.Weight()
	}
	return n
}

// Bucketize groups crashes by stack hash, each record counting with its
// Weight. Exemplars are chosen by input order (first occurrence wins),
// preferring an exemplar that carries a reproducer intent; output order is
// deterministic for any permutation-free input order.
func Bucketize(crashes []*Crash) *Result {
	var s bucketSet
	for _, c := range crashes {
		s.add(c)
	}
	return s.result()
}

// bucketSet is the bucket fold Bucketize runs in one pass and Stream runs
// one batch at a time, so the two can never disagree on a bucket's
// signature, count or exemplar.
type bucketSet struct {
	byHash map[uint64]*Bucket
	order  []uint64 // discovery order
	// crashes, anrs and faults are Result's raw record tallies.
	crashes, anrs, faults int
}

// add folds one record, with its weight, into its bucket and returns the
// bucket's hash.
func (s *bucketSet) add(c *Crash) uint64 {
	w := c.Weight()
	s.crashes += w
	if c.IsANR() {
		s.anrs += w
	}
	if c.IsFault() {
		s.faults += w
	}
	h := c.Hash()
	b, ok := s.byHash[h]
	if !ok {
		if s.byHash == nil {
			s.byHash = make(map[uint64]*Bucket)
		}
		b = newBucket(h, c)
		s.byHash[h] = b
		s.order = append(s.order, h)
	}
	b.Count += w
	// Upgrade the exemplar to the first crash with a reproducer.
	if b.Exemplar.Intent == nil && c.Intent != nil {
		b.Exemplar = c
	}
	return h
}

// Fold reduces a crash list (one shard's, in log order) to the records
// that could ever become a bucket's exemplar, weighted with the records
// they stand for. A record is kept when it is the first of its (hash,
// Kind) or the first of its bucket that carries an intent; every other
// record adds its weight to the kept first record of its (hash, Kind).
// These are the candidates WantsFlight keeps windows on, and the Kind key
// keeps the raw/ANR/fault tallies exact even across hash collisions.
//
// Bucketize over a fold, or over folds of consecutive slices concatenated,
// equals Bucketize over the raw list: the same tallies, bucket order,
// counts, signatures and exemplars (a kept exemplar is a copy of the raw
// one, differing only in Repeats). Stream batches fold the same way, and
// Fold(Fold(x)) equals Fold(x). The input and its records are not modified.
func Fold(crashes []*Crash) []*Crash {
	type slot struct {
		hash uint64
		kind string
	}
	var out []*Crash
	first := make(map[slot]*Crash)
	withIntent := make(map[uint64]bool)
	for _, c := range crashes {
		h := c.Hash()
		k := slot{h, c.Kind}
		head, seen := first[k]
		if seen && (c.Intent == nil || withIntent[h]) {
			head.Repeats += c.Weight()
			continue
		}
		kept := *c
		out = append(out, &kept)
		if !seen {
			first[k] = &kept
		}
		if c.Intent != nil {
			withIntent[h] = true
		}
	}
	return out
}

// result copies the buckets out in Bucketize's deterministic order.
func (s *bucketSet) result() *Result {
	out := &Result{Crashes: s.crashes, ANRs: s.anrs, Faults: s.faults}
	for _, h := range s.order {
		out.Buckets = append(out.Buckets, *s.byHash[h])
	}
	sortBuckets(out.Buckets)
	return out
}

// newBucket opens the bucket whose first occurrence is c (Count zero).
func newBucket(h uint64, c *Crash) *Bucket {
	b := &Bucket{Hash: h, Kind: c.Kind, Class: c.RootClass(), Frame: c.RootFrame(), Exemplar: c}
	if c.IsANR() {
		b.Class, b.Frame = "ANR", c.Component
	}
	if c.IsFault() {
		// Fault buckets have no stack either: show the injected fault kind
		// where crashes show the exception class, and the app the verdict
		// was graded against where crashes show a frame.
		b.Class, b.Frame = c.Fault, c.Process
	}
	return b
}

// sortBuckets orders buckets most-frequent first with deterministic
// tie-breaks (class, frame, hash).
func sortBuckets(buckets []Bucket) {
	sort.SliceStable(buckets, func(i, j int) bool {
		bi, bj := &buckets[i], &buckets[j]
		if bi.Count != bj.Count {
			return bi.Count > bj.Count
		}
		if bi.Class != bj.Class {
			return bi.Class < bj.Class
		}
		if bi.Frame != bj.Frame {
			return bi.Frame < bj.Frame
		}
		return bi.Hash < bj.Hash
	})
}

// Collector is a streaming failure-record collector; it implements
// logcat.Sink so it can run next to the analysis collector on a live device
// buffer, and can equally consume pulled dumps via ConsumeAll.
type Collector struct {
	dec     logcat.Decoder
	crashes []*Crash
	last    *Crash // most recently finalized record
	// lastHash is last's bucket hash.
	lastHash uint64
	// seen holds, per bucket hash, which exemplar candidates the settled
	// records (every record before last) already took: seenFirst once a
	// record opened the bucket, seenIntent once one carried an intent.
	seen map[uint64]uint8
	// gate is last's flight-window decision (gateOpen until made).
	gate uint8
}

// Per-bucket candidate bits (Collector.seen).
const (
	seenFirst uint8 = 1 << iota
	seenIntent
)

// Flight-window decisions for the most recent record (Collector.gate).
const (
	gateOpen uint8 = iota // not decided yet
	gateKeep              // last may become its bucket's exemplar
	gateDrop              // last can never be an exemplar
)

// NewCollector returns an empty streaming crash collector.
func NewCollector() *Collector {
	return &Collector{seen: make(map[uint64]uint8)}
}

// Crashes returns the finalized records in log order. The collector keeps
// ownership of the slice.
func (c *Collector) Crashes() []*Crash { return c.crashes }

// AttachIntent pairs the injected intent with the most recently finalized
// crash record, when that record does not already carry one and can still
// become its bucket's exemplar. The injector's Observe hook calls this
// right after a delivery settles as a crash: the simulation is synchronous,
// so the last FATAL EXCEPTION block belongs to that intent. The intent is
// cloned; ok reports whether a record took it, so it is false when the
// record already has one or is not a candidate: a settled record of its
// bucket already carries an intent, so this one can never be the exemplar.
func (c *Collector) AttachIntent(in *intent.Intent) bool {
	if c.last == nil || c.last.Intent != nil || in == nil || c.seen[c.lastHash]&seenIntent != 0 {
		return false
	}
	c.last.Intent = in.Clone()
	return true
}

// AttachFlight pairs a flight-recorder window (and its trace ID) with the
// most recently finalized record, when that record does not already carry
// one and WantsFlight holds — same timing as AttachIntent, and called after
// it, since the decision reads the record's intent. The caller hands over
// ownership of events (Recorder.Window already returns a private copy).
func (c *Collector) AttachFlight(trace string, events []telemetry.Event) bool {
	if len(events) == 0 || !c.WantsFlight() {
		return false
	}
	c.last.Trace = trace
	c.last.Flight = events
	return true
}

// WantsFlight reports whether AttachFlight would keep a window on the most
// recently finalized record, so a caller can skip snapshotting one that
// would be dropped. Only a record that Bucketize or Stream could pick as
// its bucket's exemplar keeps a window, and exemplar choice is "first
// occurrence, upgraded to the first carrying an intent". Within one
// collector (one shard) the candidates are therefore the first record of
// each bucket and the first record of the bucket with an intent; every
// other record's window could never be shown, and Fold ships only these
// candidates out of the shard. The decision is made once per record, on
// the first call, and never flips.
func (c *Collector) WantsFlight() bool {
	if c.last == nil || c.last.Flight != nil {
		return false
	}
	if c.gate == gateOpen {
		c.gate = gateDrop
		seen := c.seen[c.lastHash]
		if seen&seenFirst == 0 || (seen&seenIntent == 0 && c.last.Intent != nil) {
			c.gate = gateKeep
		}
	}
	return c.gate == gateKeep
}

// settle makes rec the most recent record. The previous one can no longer
// take an intent, so its candidacy is final and folds into seen.
func (c *Collector) settle(rec *Crash) {
	if prev := c.last; prev != nil {
		bits := seenFirst
		if prev.Intent != nil {
			bits |= seenIntent
		}
		c.seen[c.lastHash] |= bits
	}
	c.crashes = append(c.crashes, rec)
	c.last, c.lastHash, c.gate = rec, rec.Hash(), gateOpen
}

// ConsumeAll feeds a slice of entries (a pulled logcat dump) in order.
func (c *Collector) ConsumeAll(entries []logcat.Entry) {
	for _, e := range entries {
		c.Consume(e)
	}
}

// Consume takes one log entry, decoding it with the collector's own
// decoder.
func (c *Collector) Consume(e logcat.Entry) { (*collectorSink)(c).Consume(&e) }

// Sink returns the collector as a log sink that decodes each entry in
// place with the collector's own decoder. Every call returns the same sink,
// so Unsubscribe(c.Sink()) detaches a subscribed one.
func (c *Collector) Sink() logcat.Sink { return (*collectorSink)(c) }

type collectorSink Collector

func (s *collectorSink) Consume(e *logcat.Entry) {
	c := (*Collector)(s)
	c.Observe(c.dec.Decode(e))
}

// Observe takes the event a logcat Decoder decoded from one log entry, in
// log order: fatal blocks, ANRs and fault verdicts become records, each
// complete (and attachable) once its last line is in.
func (c *Collector) Observe(ev *logcat.Event) {
	switch ev.Kind {
	case logcat.EventFatal:
		c.settle(&Crash{Kind: KindCrash, Process: ev.Proc, Classes: ev.Classes, Frames: ev.Frames})
	case logcat.EventANR:
		// The verbatim component text is the bucket identity, parsed or not.
		if ev.Proc != "" && ev.Text != "" {
			c.settle(&Crash{Kind: KindANR, Process: ev.Proc, Component: ev.Text})
		}
	case logcat.EventVerdict:
		rec := &Crash{Kind: ev.Verdict, Fault: ev.Fault, Process: ev.Proc, Component: ev.Target}
		if rec.IsFault() {
			c.settle(rec)
		}
	}
}
