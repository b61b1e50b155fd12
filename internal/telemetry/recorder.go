package telemetry

import (
	"fmt"
	"time"
)

// EventKind classifies a flight-recorder event.
type EventKind uint8

const (
	// EventIntent: the fuzzer generated an intent and is about to send it.
	EventIntent EventKind = iota + 1
	// EventDispatch: the OS finished delivering an intent; Detail carries
	// the DeliveryResult name.
	EventDispatch
	// EventDenial: a pre-delivery gate rejected the intent; Detail carries
	// the denial reason.
	EventDenial
	// EventReboot: the device rebooted; Detail carries the reboot reason.
	EventReboot
	// EventVerdict: an oracle observed a failure; Detail is "anr" for an
	// ANR and the root exception class for a crash.
	EventVerdict
	// EventBinder: a binder transaction failed against a dead process.
	EventBinder
	// EventFault: a fault-injection window opened or closed, or a probe
	// inside one observed degradation; Detail carries the fault phase
	// ("begin", "end", probe outcome, or the window's verdict).
	EventFault
)

// String names the event kind.
func (k EventKind) String() string {
	switch k {
	case EventIntent:
		return "intent"
	case EventDispatch:
		return "dispatch"
	case EventDenial:
		return "denial"
	case EventReboot:
		return "reboot"
	case EventVerdict:
		return "verdict"
	case EventBinder:
		return "binder"
	case EventFault:
		return "fault"
	default:
		return "unknown"
	}
}

// MarshalText renders the kind as its name (a JSON string in journals and
// report artifacts), so they stay readable and stable if the enum is ever
// reordered.
func (k EventKind) MarshalText() ([]byte, error) {
	return []byte(k.String()), nil
}

// UnmarshalText parses the kind name written by MarshalText. The zero kind
// (what a JSON null leaves, since null never reaches UnmarshalText) is named
// "unknown" and parses back, so every decoded window re-encodes to bytes
// that decode again.
func (k *EventKind) UnmarshalText(text []byte) error {
	for c := EventKind(0); c <= EventFault; c++ {
		if c.String() == string(text) {
			*k = c
			return nil
		}
	}
	return fmt.Errorf("telemetry: unknown event kind %q", text)
}

// Event is one structured flight-recorder entry. All fields are plain
// values (no lazy references), so a snapshotted window stays valid after
// the device that produced it is gone.
type Event struct {
	// Seq is the recorder-local sequence number (1-based, monotonic).
	Seq uint64 `json:"seq"`
	// Time is the device-clock stamp. Bulk events (intent, dispatch) carry
	// a sampled stamp that may lag by up to stampSampleEvery events; rare
	// events (denial, verdict, reboot, binder death) are stamped exactly.
	Time time.Time `json:"time"`
	Kind EventKind `json:"kind"`
	// Trace is the campaign trace ID active when the event was recorded
	// (e.g. "A/com.heartwatch.wear").
	Trace string `json:"trace,omitempty"`
	// Subject is what the event is about: a component for intents and
	// dispatches, a process for verdicts, a binder endpoint for deaths.
	Subject string `json:"subject,omitempty"`
	// Action is the intent action in flight, when one applies.
	Action string `json:"action,omitempty"`
	// Detail carries the kind-specific outcome (delivery result, denial
	// reason, verdict, reboot reason).
	Detail string `json:"detail,omitempty"`
}

// String renders the event for humans. Rendering is deliberately not done
// at record time — the hot path stores fields and formats nothing.
func (e *Event) String() string {
	return fmt.Sprintf("#%d %s %s subject=%q action=%q detail=%q",
		e.Seq, e.Time.Format(time.RFC3339), e.Kind, e.Subject, e.Action, e.Detail)
}

// DefaultRecorderCapacity bounds the event ring when capacity <= 0: large
// enough to show the run-up to a failure, small enough that attaching a
// window to every triage record stays cheap.
const DefaultRecorderCapacity = 64

// stampSampleEvery is how often a bulk Record call refreshes the cached
// clock stamp (power of two). An exact stamp would cost a clock call and a
// stamp-ring write per bulk event, at a few hundred ns per dispatch; and
// the sampled stamps sit inside the exported flight windows, which the
// pinned export hashes cover, so the rate is part of the output. Between
// injections the virtual clock only moves in fuzzer pacing steps anyway.
// The sampling counter is part of recorder state, so stamps are
// deterministic for a deterministic event stream.
const stampSampleEvery = 16

// Recorder is a fixed-capacity flight recorder: a ring of pooled event
// slots that always holds the most recent window of structured events.
// Record writes in place and allocates nothing; Window copies the ring out
// when a failure makes the history worth keeping. Like the device it
// instruments, a Recorder is single-threaded; a nil *Recorder no-ops.
type Recorder struct {
	events []slot
	mask   int // len(events)-1; capacity is always a power of two
	start  int // index of oldest retained event
	count  int
	// seq is the last event's sequence number; the retained events are
	// the last count ones, so their numbers run up to it.
	seq uint64
	// trace is every retained event's trace ID: BeginTrace empties the
	// window, so slots need not store it.
	trace string
	now   func() time.Time
	// stamps holds the clock stamps taken, the current one at
	// stamps[stamp&mask]; a slot names its stamp by that index. Each event
	// takes at most one new stamp, so the retained events' stamps are all
	// still held.
	stamps []time.Time
	stamp  uint32
	// codes names the details RecordCode stores as codes.
	codes []string
}

// slot is a ring entry: an Event without its sequence number, trace and
// time, which the recorder holds, and whose detail is codes[code] when
// coded.
type slot struct {
	subject, action string
	detail          string
	stamp           uint32
	kind            EventKind
	coded           bool
	code            uint8
}

// NewRecorder returns a recorder retaining the last capacity events
// (DefaultRecorderCapacity when capacity <= 0; rounded up to a power of
// two so ring indexing is a mask, not a division). The slot pool is
// allocated up front so recording never grows it.
func NewRecorder(capacity int) *Recorder {
	if capacity <= 0 {
		capacity = DefaultRecorderCapacity
	}
	pow := 1
	for pow < capacity {
		pow <<= 1
	}
	return &Recorder{events: make([]slot, pow), stamps: make([]time.Time, pow), mask: pow - 1}
}

// SetDetailCodes names the details RecordCode records by code: code i
// reads back as names[i]. The device sets its delivery-result names.
func (r *Recorder) SetDetailCodes(names []string) {
	if r != nil {
		r.codes = names
	}
}

// SetClock attaches the time source used to stamp events (typically the
// device's virtual clock). Without one, events carry zero times.
func (r *Recorder) SetClock(now func() time.Time) {
	if r != nil {
		r.now = now
	}
}

// BeginTrace starts a new trace window: subsequent events carry the given
// trace ID and the retained window is reset, so a snapshot never mixes
// events from two campaigns. The sequence counter keeps running.
func (r *Recorder) BeginTrace(id string) {
	if r == nil {
		return
	}
	r.trace = id
	r.start, r.count = 0, 0
}

// Trace returns the active trace ID ("" for nil or before BeginTrace).
func (r *Recorder) Trace() string {
	if r == nil {
		return ""
	}
	return r.trace
}

// Record appends a bulk event (sampled clock stamp). The write lands in a
// pooled ring slot: no allocation, no formatting.
func (r *Recorder) Record(kind EventKind, subject, action, detail string) {
	if r == nil {
		return
	}
	if r.seq&(stampSampleEvery-1) == 0 && r.now != nil {
		r.takeStamp()
	}
	sl := r.slot(kind, subject, action)
	sl.detail, sl.coded = detail, false
}

// takeStamp reads the clock into the next stamp.
func (r *Recorder) takeStamp() {
	r.stamp++
	r.stamps[int(r.stamp)&r.mask] = r.now()
}

// RecordNow appends an event with an exact clock stamp. Failure-adjacent
// sites (denials, verdicts, reboots, binder deaths) use it so the tail of
// a snapshotted window is precisely timed.
func (r *Recorder) RecordNow(kind EventKind, subject, action, detail string) {
	if r == nil {
		return
	}
	if r.now != nil {
		r.takeStamp()
	}
	sl := r.slot(kind, subject, action)
	sl.detail, sl.coded = detail, false
}

// RecordCode is Record (RecordNow when exact) for an event whose detail is
// the SetDetailCodes name of code: the slot stores the code, and Window
// renders the name.
func (r *Recorder) RecordCode(kind EventKind, subject, action string, code uint8, exact bool) {
	if r == nil {
		return
	}
	if r.now != nil && (exact || r.seq&(stampSampleEvery-1) == 0) {
		r.takeStamp()
	}
	sl := r.slot(kind, subject, action)
	sl.code, sl.coded = code, true
}

// slot claims the next ring slot and fills every field but the detail.
func (r *Recorder) slot(kind EventKind, subject, action string) *slot {
	var sl *slot
	if r.count < len(r.events) {
		sl = &r.events[(r.start+r.count)&r.mask]
		r.count++
	} else {
		sl = &r.events[r.start]
		r.start = (r.start + 1) & r.mask
	}
	r.seq++
	sl.stamp = r.stamp
	sl.kind = kind
	sl.subject = subject
	sl.action = action
	return sl
}

// Window returns a copy of the retained events, oldest first. The copy is
// independent of the ring: safe to attach to a triage record while the
// recorder keeps running.
func (r *Recorder) Window() []Event {
	if r == nil || r.count == 0 {
		return nil
	}
	out := make([]Event, r.count)
	first := r.seq - uint64(r.count) + 1
	for i := range out {
		sl := &r.events[(r.start+i)&r.mask]
		detail := sl.detail
		if sl.coded {
			detail = r.codes[sl.code]
		}
		out[i] = Event{Seq: first + uint64(i), Time: r.stamps[int(sl.stamp)&r.mask], Kind: sl.kind, Trace: r.trace,
			Subject: sl.subject, Action: sl.action, Detail: detail}
	}
	return out
}

// Recorded returns the total number of events ever recorded (including
// those evicted from the ring).
func (r *Recorder) Recorded() uint64 {
	if r == nil {
		return 0
	}
	return r.seq
}
