// Package logcat models Android's logging facility. Every observable the
// paper measures — FATAL EXCEPTION blocks, ANR reports, SecurityExceptions,
// native signal deliveries, reboot markers — is read out of logcat; the QGJ
// workflow pulls the logs over adb and the analyzer classifies
// manifestations from them (Section III-D: "we collected all of the log
// files (over 2GB) from the wearable using logcat").
//
// At campaign scale (~1.5M intents), rendering every entry eagerly with
// fmt.Sprintf dominates the injection hot path even though the vast
// majority of lines are only ever read once at analysis time — or never.
// Entries can therefore carry a structured Payload instead of a rendered
// Message: the dispatch path stores the operands (verb, intent fields,
// component, pid) and Format/Msg render the identical text on demand.
package logcat

import (
	"fmt"
	"slices"
	"strconv"
	"strings"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/telemetry"
)

// Level is the Android log priority.
type Level uint8

const (
	Verbose Level = iota + 1
	Debug
	Info
	Warn
	Error
	Fatal
)

// String returns the single-letter logcat priority code.
func (l Level) String() string {
	switch l {
	case Verbose:
		return "V"
	case Debug:
		return "D"
	case Info:
		return "I"
	case Warn:
		return "W"
	case Error:
		return "E"
	case Fatal:
		return "F"
	default:
		return "?"
	}
}

// MsgOp identifies the deferred-render operation of a lazily logged entry.
// The vocabulary covers exactly the lines the injection hot path emits per
// intent, its failure outcomes included (rejected and caught exceptions,
// FATAL EXCEPTION blocks and the death that ends them); everything else
// (boot banners, watchdog notices, ANR reports) stays eager.
type MsgOp uint8

const (
	// MsgEager marks a conventionally logged entry: Message holds the text.
	MsgEager MsgOp = iota
	// MsgDispatch renders "<Verb> u0 <intent> from uid <N>" where <intent>
	// is the logcat-style flattened intent built from Act, Data, Launcher,
	// Comp and HasExtras. Only intents without a MIME type or flags, whose
	// categories are none or the launcher category alone, take this path
	// (the operand set covers exactly what campaign intents and am's
	// MAIN/LAUNCHER launches carry); richer intents fall back to eager
	// formatting.
	MsgDispatch
	// MsgDelivering renders "Delivering to <Verb> cmp=<Flat> pid=<N>".
	MsgDelivering
	// MsgRejected renders
	// "Exception thrown delivering intent to cmp=<Flat>: <Thrown>", where
	// <Thrown> is the exception as Throwable.Error renders it: "<Verb>" or
	// "<Verb>: <Message>" for class Verb and message Message, or Message
	// alone when Verb is empty.
	MsgRejected
	// MsgCaught renders "caught exception while handling intent: <Thrown>".
	MsgCaught
	// MsgDenyProtected renders the SecurityException an unprivileged sender
	// of a protected action gets: "java.lang.SecurityException: Permission
	// Denial: not allowed to send broadcast <Act> from pid=?, uid=<N>
	// targeting <Flat>".
	MsgDenyProtected
	// MsgDenyNotExported renders "java.lang.SecurityException: Permission
	// Denial: <Flat> not exported from uid <N> targeting <Flat>".
	MsgDenyNotExported
	// MsgDenyPermission renders "java.lang.SecurityException: Permission
	// Denial: starting <Flat> requires <Message> targeting <Flat>".
	MsgDenyPermission
	// MsgNotFound renders the resolution failure for a component of kind
	// Verb: "android.content.ActivityNotFoundException: Unable to find
	// explicit activity class <Flat>; have you declared this activity in
	// your AndroidManifest.xml?" for an activity, else "Unable to start
	// service <Flat>: not found".
	MsgNotFound
	// MsgException renders an exception header line of a trace: <Thrown>.
	MsgException
	// MsgCausedBy renders a cause's header line: "Caused by: <Thrown>".
	MsgCausedBy
	// MsgFrame renders a trace frame line, "\tat <Verb>.<Act>(<Data>:<N>)",
	// for the frame's class Verb, method Act, file Data and line N.
	MsgFrame
	// MsgFatalProcess renders a FATAL EXCEPTION block's second line,
	// "Process: <Verb>, PID: <N>".
	MsgFatalProcess
	// MsgDied renders the death that ends a crash,
	// "Process <Verb> (pid <N>) has died".
	MsgDied
)

// Payload carries the structured operands of a lazily rendered message. The
// operand text of MsgDenyPermission (the permission), of the ops rendering
// an exception (its message) and of MsgDispatch (the opaque part of a split
// datum) lives in the entry's Message. Operand strings are expected to be
// long-lived (interned catalog entries, cached component flats, exception
// messages) so storing them allocates nothing.
type Payload struct {
	// Verb is the dispatch verb (START, startService) for MsgDispatch, the
	// component kind (activity, service) for MsgDelivering and MsgNotFound,
	// the exception class for the ops rendering an exception, the frame's
	// class for MsgFrame and the process name for MsgFatalProcess and
	// MsgDied.
	Verb string
	// Act/Data/Comp/HasExtras are the intent fields of MsgDispatch; Act is
	// also the denied action of MsgDenyProtected. HasData distinguishes "no
	// data" from data rendering to the empty string, the way Intent.String
	// keys off URI.IsZero. A MsgDispatch entry with a non-empty Message
	// renders its datum as "<Data>:<Message>", a scheme and an opaque part
	// kept apart so that logging a generated URI allocates nothing. Act and
	// Data are the method and file of MsgFrame.
	Act  string
	Data string
	// Comp is the target component, rendered in its flat form by the
	// dispatch, delivery, rejection and gate ops, and read structurally
	// (parse-free) by the Decoder.
	Comp intent.ComponentName
	// N is the number operand: the sender UID of MsgDispatch and the
	// Permission Denial ops, the target process of MsgDelivering, the PID of
	// MsgFatalProcess and MsgDied, the line of MsgFrame.
	N         int32
	Op        MsgOp
	HasData   bool
	HasExtras bool
	// Launcher marks a MsgDispatch intent whose one category is
	// intent.CategoryLauncher, which am adds to a launch with no action.
	Launcher bool
}

// ThrownPayload returns the operands of the lazy line op (MsgRejected,
// MsgCaught, MsgException or MsgCausedBy) logging thr: the class in Verb
// and the message as the entry's text. A throwable without a class keeps
// its whole Error text as the message.
func ThrownPayload(op MsgOp, thr *javalang.Throwable) (text string, p Payload) {
	if thr.Class == "" {
		return thr.Error(), Payload{Op: op}
	}
	return thr.Message, Payload{Op: op, Verb: string(thr.Class)}
}

// appendThrown renders the exception operands the way Throwable.Error does.
func appendThrown(dst []byte, class, msg string) []byte {
	if class == "" {
		return append(dst, msg...)
	}
	dst = append(dst, class...)
	if msg != "" {
		dst = append(dst, ": "...)
		dst = append(dst, msg...)
	}
	return dst
}

// securityDenial is the thrown class prefix of the Permission Denial ops.
const securityDenial = string(javalang.ClassSecurity) + ": Permission Denial: "

// appendMsg renders the payload's message text into dst; text is the
// entry's Message, the payload's operand text. The output is byte-identical
// to what the eager fmt.Sprintf call sites produced.
func (p *Payload) appendMsg(dst []byte, text string) []byte {
	switch p.Op {
	case MsgDispatch:
		dst = append(dst, p.Verb...)
		dst = append(dst, " u0 {"...)
		mark := len(dst)
		if p.Act != "" {
			dst = append(dst, "act="...)
			dst = append(dst, p.Act...)
		}
		if p.HasData {
			if len(dst) > mark {
				dst = append(dst, ' ')
			}
			dst = append(dst, "dat="...)
			dst = append(dst, p.Data...)
			if text != "" {
				dst = append(dst, ':')
				dst = append(dst, text...)
			}
		}
		if p.Launcher {
			if len(dst) > mark {
				dst = append(dst, ' ')
			}
			dst = append(dst, "cat="+intent.CategoryLauncher...)
		}
		if !p.Comp.IsZero() {
			if len(dst) > mark {
				dst = append(dst, ' ')
			}
			dst = append(dst, "cmp="...)
			dst = p.Comp.AppendFlat(dst)
		}
		if p.HasExtras {
			if len(dst) > mark {
				dst = append(dst, ' ')
			}
			dst = append(dst, "(has extras)"...)
		}
		dst = append(dst, "} from uid "...)
		dst = strconv.AppendInt(dst, int64(p.N), 10)
	case MsgDelivering:
		dst = append(dst, "Delivering to "...)
		dst = append(dst, p.Verb...)
		dst = append(dst, " cmp="...)
		dst = p.Comp.AppendFlat(dst)
		dst = append(dst, " pid="...)
		dst = strconv.AppendInt(dst, int64(p.N), 10)
	case MsgRejected:
		dst = append(dst, "Exception thrown delivering intent to cmp="...)
		dst = p.Comp.AppendFlat(dst)
		dst = append(dst, ": "...)
		dst = appendThrown(dst, p.Verb, text)
	case MsgCaught:
		dst = append(dst, "caught exception while handling intent: "...)
		dst = appendThrown(dst, p.Verb, text)
	case MsgException:
		dst = appendThrown(dst, p.Verb, text)
	case MsgCausedBy:
		dst = append(dst, causedBy...)
		dst = appendThrown(dst, p.Verb, text)
	case MsgFrame:
		dst = append(dst, "\tat "...)
		dst = append(dst, p.Verb...)
		dst = append(dst, '.')
		dst = append(dst, p.Act...)
		dst = append(dst, '(')
		dst = append(dst, p.Data...)
		dst = append(dst, ':')
		dst = strconv.AppendInt(dst, int64(p.N), 10)
		dst = append(dst, ')')
	case MsgFatalProcess:
		dst = append(dst, "Process: "...)
		dst = append(dst, p.Verb...)
		dst = append(dst, ", PID: "...)
		dst = strconv.AppendInt(dst, int64(p.N), 10)
	case MsgDied:
		dst = append(dst, "Process "...)
		dst = append(dst, p.Verb...)
		dst = append(dst, " (pid "...)
		dst = strconv.AppendInt(dst, int64(p.N), 10)
		dst = append(dst, ") has died"...)
	case MsgDenyProtected:
		dst = append(dst, securityDenial+"not allowed to send broadcast "...)
		dst = append(dst, p.Act...)
		dst = append(dst, " from pid=?, uid="...)
		dst = strconv.AppendInt(dst, int64(p.N), 10)
		dst = appendTargeting(dst, p.Comp)
	case MsgDenyNotExported:
		dst = append(dst, securityDenial...)
		dst = p.Comp.AppendFlat(dst)
		dst = append(dst, " not exported from uid "...)
		dst = strconv.AppendInt(dst, int64(p.N), 10)
		dst = appendTargeting(dst, p.Comp)
	case MsgDenyPermission:
		dst = append(dst, securityDenial+"starting "...)
		dst = p.Comp.AppendFlat(dst)
		dst = append(dst, " requires "...)
		dst = append(dst, text...)
		dst = appendTargeting(dst, p.Comp)
	case MsgNotFound:
		if p.Verb != "activity" {
			dst = append(dst, "Unable to start service "...)
			dst = p.Comp.AppendFlat(dst)
			return append(dst, ": not found"...)
		}
		dst = append(dst, string(javalang.ClassActivityNotFound)+": Unable to find explicit activity class "...)
		dst = p.Comp.AppendFlat(dst)
		dst = append(dst, "; have you declared this activity in your AndroidManifest.xml?"...)
	}
	return dst
}

// causedBy prefixes a cause's header line in a trace.
const causedBy = "Caused by: "

// targetingMarker introduces the denied component at the end of a
// Permission Denial line.
const targetingMarker = " targeting "

func appendTargeting(dst []byte, c intent.ComponentName) []byte {
	return c.AppendFlat(append(dst, targetingMarker...))
}

// Entry is one log line. Entries are either eager (Message holds the text,
// Payload.Op == MsgEager) or lazy (Payload holds the operands and Message
// at most the operand text); Msg and Format render both identically.
// Every ring slot holds one, so the struct is kept small (TestEntrySize
// pins it): the timestamp is stored as Unix seconds and nanoseconds, which
// hold every time the ring sees exactly (a time.Time is 24 bytes, and an
// int64 nanosecond count cannot reach ParseLine's year-0 times), and the
// numbers are as wide as Android's.
type Entry struct {
	sec     int64
	nsec    int32
	PID     int32
	TID     int32
	Level   Level
	Tag     string
	Message string
	Payload Payload
}

// Time returns the entry's timestamp, in UTC.
func (e *Entry) Time() time.Time { return time.Unix(e.sec, int64(e.nsec)).UTC() }

// SetTime stamps the entry with t. Only the instant is kept: Time returns
// it in UTC, the zone of every clock that stamps a device's log.
func (e *Entry) SetTime(t time.Time) { e.sec, e.nsec = t.Unix(), int32(t.Nanosecond()) }

// Msg returns the entry's message text, rendering a lazy payload on demand.
func (e *Entry) Msg() string {
	if e.Payload.Op == MsgEager {
		return e.Message
	}
	return string(e.Payload.appendMsg(nil, e.Message))
}

// threadtimeLayout is logcat's threadtime timestamp format (no year).
const threadtimeLayout = "01-02 15:04:05.000"

// appendPad5 appends n the way fmt's %5d renders it: right-aligned in a
// five-column space-padded field, wider numbers unpadded.
func appendPad5(dst []byte, n int32) []byte {
	var scratch [20]byte
	s := strconv.AppendInt(scratch[:0], int64(n), 10)
	for i := len(s); i < 5; i++ {
		dst = append(dst, ' ')
	}
	return append(dst, s...)
}

// AppendFormat renders the entry in threadtime format into dst, exactly as
// fmt.Sprintf("%s %5d %5d %s %s: %s") used to.
func (e *Entry) AppendFormat(dst []byte) []byte {
	dst = e.Time().AppendFormat(dst, threadtimeLayout)
	dst = append(dst, ' ')
	dst = appendPad5(dst, e.PID)
	dst = append(dst, ' ')
	dst = appendPad5(dst, e.TID)
	dst = append(dst, ' ')
	dst = append(dst, e.Level.String()...)
	dst = append(dst, ' ')
	dst = append(dst, e.Tag...)
	dst = append(dst, ": "...)
	if e.Payload.Op == MsgEager {
		return append(dst, e.Message...)
	}
	return e.Payload.appendMsg(dst, e.Message)
}

// Format renders the entry in logcat's threadtime format, which the pull
// path emits and the parser consumes.
func (e *Entry) Format() string {
	return string(e.AppendFormat(make([]byte, 0, 48+len(e.Tag)+len(e.Message))))
}

// Well-known tags used across the simulator, mirroring AOSP conventions.
const (
	TagActivityManager = "ActivityManager"
	TagAndroidRuntime  = "AndroidRuntime"
	TagSystemServer    = "SystemServer"
	TagSensorService   = "SensorService"
	TagPackageManager  = "PackageManager"
	TagWatchdog        = "Watchdog"
	TagDEBUG           = "DEBUG" // native crash dumps (debuggerd)
	TagBoot            = "boot"
	TagDropBox         = "DropBoxManagerService"
	TagFaultInject     = "FaultInject"
)

// Sink receives entries as they are appended; the streaming analyzer and
// test recorders register sinks so multi-million-entry campaigns do not have
// to retain the full log in memory. Sinks that only understand rendered
// text should read e.Msg(), never e.Message (a lazy entry's Message holds
// at most an operand of its text).
//
// Consume receives the entry in place, usually the ring slot it was just
// stored in: a sink must not retain the pointer, or write through it, after
// Consume returns. The slot is overwritten when the ring wraps. A sink that
// keeps an entry copies *e.
type Sink interface {
	Consume(e *Entry)
}

// SinkFunc adapts a function taking an entry by value to the Sink
// interface; its Consume hands f a copy.
type SinkFunc func(Entry)

// Consume implements Sink.
func (f SinkFunc) Consume(e *Entry) { f(*e) }

// Buffer is a bounded ring of log entries, like the kernel log buffer
// logcat reads. Oldest entries are dropped when the buffer is full.
//
// The ring's slots live in chunks of chunkLen entries, each allocated the
// first time an append reaches it and never copied: a device that logs a
// hundred lines pays for one chunk, and a full ring holds its capacity in
// entries plus the chunk table. Retention and eviction depend only on the
// capacity, never on how many chunks are allocated.
//
// A Buffer is not safe for concurrent use. Each device's buffer is owned by
// the goroutine that drives the device, which is the only one that appends,
// subscribes, snapshots or clears it; a telemetry scrape from another
// goroutine reads only the registry's atomics, never the ring.
type Buffer struct {
	// chunks[k] holds ring slots [k*chunkLen, (k+1)*chunkLen), nil until an
	// append first reaches it.
	chunks  []*[chunkLen]Entry
	capN    int // retention capacity
	start   int // slot of the oldest entry
	count   int
	dropped uint64
	sinks   []Sink

	// Telemetry (optional; nil metrics no-op).
	appended     *telemetry.Counter
	droppedGauge *telemetry.Gauge
	onFirstDrop  func(capacity int)
	// warned records that onFirstDrop ran (it runs at most once per reset).
	warned bool

	// total is the exact number of appends since construction; flushed is
	// the portion already added to the appended counter. Batching the
	// counter updates keeps an atomic add off the per-line append path (see
	// appendFlushEvery).
	total   uint64
	flushed uint64
}

// DefaultCapacity matches a generously sized logd buffer; campaign runs
// clear the buffer per-app the way the paper pulls logs per experiment.
const DefaultCapacity = 1 << 16

// Ring chunk geometry: chunkLen entries per chunk, a power of two. A
// 128-entry chunk is 18 KiB (19,072 bytes with the allocator's header), so
// the one chunk a fresh clone's boot baseline needs costs less than the
// rest of the clone; a 1,024-entry chunk doubled a clone's cost.
const (
	chunkShift = 7
	chunkLen   = 1 << chunkShift
	chunkMask  = chunkLen - 1
)

// ChunkCapacity is the capacity of a ring of one chunk: the smallest ring
// that allocates a whole chunk, for a device whose collectors read every
// line as it is appended and whose log nobody dumps.
const ChunkCapacity = chunkLen

// NewBuffer returns a ring buffer holding up to capacity entries
// (DefaultCapacity when capacity <= 0). It allocates only its chunk table;
// the entries' chunks follow as appends reach them.
func NewBuffer(capacity int) *Buffer {
	if capacity <= 0 {
		capacity = DefaultCapacity
	}
	return &Buffer{chunks: make([]*[chunkLen]Entry, (capacity+chunkMask)>>chunkShift), capN: capacity}
}

// Restore seeds the buffer with entries (oldest first) without fanning them
// out to sinks and without telemetry flushes — they were already observed
// and counted on the device the snapshot was taken from. Callers use it to
// replay a boot-time baseline into a fresh buffer before any sinks
// subscribe.
func (b *Buffer) Restore(entries []Entry) {
	for i := range entries {
		b.push(&entries[i])
	}
	b.total += uint64(len(entries))
}

// ResetRetain returns the ring to the state Restore(baseline) leaves a
// freshly constructed buffer in, but keeps the chunks it has allocated:
// retention and eviction depend only on the capacity, so a ring with
// allocated chunks is observably identical to a fresh one. Sinks and
// telemetry handles are detached — the next campaign unit subscribes its
// own — and the drop accounting re-arms, including the one-shot first-drop
// trigger. The persistent-mode device reset uses it so a reused device
// never re-allocates its ring.
func (b *Buffer) ResetRetain(baseline []Entry) {
	b.start, b.count = 0, 0
	b.dropped = 0
	b.warned = false
	b.sinks = nil
	b.appended = nil
	b.droppedGauge = nil
	b.total = 0
	b.Restore(baseline)
	b.flushed = b.total
}

// Subscribe registers a sink that observes every subsequent Append. Sinks
// are invoked synchronously in registration order.
func (b *Buffer) Subscribe(s Sink) {
	b.sinks = append(b.sinks, s)
}

// Unsubscribe detaches every registration of s (which must be comparable,
// as pointer sinks are). Appends already fanning out finish on the old
// sink list.
func (b *Buffer) Unsubscribe(s Sink) {
	b.sinks = slices.DeleteFunc(slices.Clone(b.sinks), func(x Sink) bool { return x == s })
}

// SetTelemetry wires the buffer's counters into reg: logcat_entries_total
// counts appends, logcat_dropped_lines mirrors Dropped(). A nil registry
// detaches.
func (b *Buffer) SetTelemetry(reg *telemetry.Registry) {
	b.appended = reg.Counter("logcat_entries_total")
	b.droppedGauge = reg.Gauge("logcat_dropped_lines")
	b.droppedGauge.Set(float64(b.dropped))
	// Lines appended before attachment were never counted; start the batch
	// window here.
	b.flushed = b.total
}

// appendFlushEvery is the batching window for the logcat_entries_total
// counter (power of two). The exact count lives in b.total; the shared
// atomic is only touched once per window (and on every read accessor),
// keeping the per-line append path free of atomics.
const appendFlushEvery = 64

// flush pushes the pending append delta into the telemetry counter.
func (b *Buffer) flush() {
	if d := b.total - b.flushed; d != 0 {
		b.appended.Add(d)
		b.flushed = b.total
	}
}

// FlushTelemetry makes the batched counters current, e.g. before a scrape
// at a campaign boundary.
func (b *Buffer) FlushTelemetry() { b.flush() }

// OnFirstDrop registers fn to run once, when the first entry is evicted for
// capacity while no sink is subscribed. Dropped lines silently corrupt
// manifestation counts when the analyzer reads a pulled dump, so callers
// surface a warning here; a subscribed sink has already seen every line it
// analyzes, so drops under one warn nobody. Dropped and the
// logcat_dropped_lines gauge count every drop either way.
func (b *Buffer) OnFirstDrop(fn func(capacity int)) {
	b.onFirstDrop = fn
}

// droppedGaugeEvery is the refresh cadence of the logcat_dropped_lines
// gauge (power of two). Once the ring is full — the steady state of any
// long campaign — every push evicts a line, and refreshing the gauge per
// eviction would put an atomic store and a float conversion on the hot
// append path. Dropped() stays exact; scrapes lag by at most the cadence.
const droppedGaugeEvery = 1024

// slot claims the ring slot of the next entry, evicting the oldest entry
// when the ring is full, and returns it for the caller to overwrite. Loggers
// build entries in place: an Entry is large, and copying it through
// Append's argument into the ring is measurable per line.
func (b *Buffer) slot() *Entry {
	if b.count == b.capN {
		i := b.start
		if b.start++; b.start == b.capN {
			b.start = 0
		}
		b.dropped++
		if b.dropped == 1 || b.dropped&(droppedGaugeEvery-1) == 0 {
			b.droppedGauge.Set(float64(b.dropped))
		}
		if !b.warned && len(b.sinks) == 0 && b.onFirstDrop != nil {
			b.warned = true
			b.onFirstDrop(b.capN)
		}
		return &b.chunks[i>>chunkShift][i&chunkMask]
	}
	i := b.start + b.count
	if i >= b.capN {
		i -= b.capN
	}
	b.count++
	c := b.chunks[i>>chunkShift]
	if c == nil {
		c = new([chunkLen]Entry)
		b.chunks[i>>chunkShift] = c
	}
	return &c[i&chunkMask]
}

// push stores *e in the ring.
func (b *Buffer) push(e *Entry) { *b.slot() = *e }

// publish counts the entry just stored in the ring and fans it out to the
// sinks.
func (b *Buffer) publish(e *Entry) {
	b.total++
	if b.total-b.flushed >= appendFlushEvery {
		b.flush()
	}
	for _, s := range b.sinks {
		s.Consume(e)
	}
}

// Append adds an entry to the buffer and fans it out to sinks.
func (b *Buffer) Append(e Entry) {
	slot := b.slot()
	*slot = e
	b.publish(slot)
}

// Len returns the number of retained entries.
func (b *Buffer) Len() int {
	b.flush()
	return b.count
}

// Cap returns how many ring slots are allocated so far: the entries of the
// chunks appends have reached.
func (b *Buffer) Cap() int {
	n := 0
	for _, c := range b.chunks {
		if c != nil {
			n += chunkLen
		}
	}
	return n
}

// Dropped returns how many entries were evicted due to capacity. Reading
// the exact count also re-syncs the sampled logcat_dropped_lines gauge.
func (b *Buffer) Dropped() uint64 {
	b.flush()
	if b.dropped > 0 {
		b.droppedGauge.Set(float64(b.dropped))
	}
	return b.dropped
}

// Snapshot returns a copy of the retained entries, oldest first, copied one
// chunk run at a time.
func (b *Buffer) Snapshot() []Entry {
	b.flush()
	out := make([]Entry, b.count)
	for n, i := 0, b.start; n < len(out); {
		k := copy(out[n:min(len(out), n+b.capN-i)], b.chunks[i>>chunkShift][i&chunkMask:])
		n += k
		if i += k; i == b.capN {
			i = 0
		}
	}
	return out
}

// Dump renders the retained entries in threadtime format, one per line.
func (b *Buffer) Dump() string {
	snap := b.Snapshot()
	buf := make([]byte, 0, len(snap)*96)
	for i := range snap {
		buf = snap[i].AppendFormat(buf)
		buf = append(buf, '\n')
	}
	return string(buf)
}

// Logger is a convenience handle that stamps entries with a clock and
// writes them to a buffer. Like the Buffer, it belongs to the goroutine
// that drives its device.
type Logger struct {
	buf *Buffer
	now func() time.Time
}

// NewLogger returns a logger writing to buf with timestamps from now.
func NewLogger(buf *Buffer, now func() time.Time) *Logger {
	return &Logger{buf: buf, now: now}
}

// Log appends a formatted entry.
func (l *Logger) Log(pid, tid int, level Level, tag, format string, args ...any) {
	msg := format
	if len(args) > 0 {
		msg = fmt.Sprintf(format, args...)
	}
	e := l.buf.slot()
	*e = Entry{PID: int32(pid), TID: int32(tid), Level: level, Tag: tag, Message: msg}
	e.SetTime(l.now())
	l.buf.publish(e)
}

// LogLazy appends an entry whose message renders on demand from *p and its
// operand text (see Payload). The injection hot path uses this to store
// structure instead of paying fmt.Sprintf per intent; the payload is copied
// from *p straight into the ring slot.
func (l *Logger) LogLazy(pid, tid int, level Level, tag, text string, p *Payload) {
	l.lazyAt(l.now(), pid, tid, level, tag, text, p)
}

func (l *Logger) lazyAt(t time.Time, pid, tid int, level Level, tag, text string, p *Payload) {
	e := l.buf.slot()
	e.SetTime(t)
	e.PID, e.TID, e.Level, e.Tag, e.Message = int32(pid), int32(tid), level, tag, text
	e.Payload = *p
	l.buf.publish(e)
}

// Trace appends thr's stack trace the way ART prints it (the lines of
// Throwable.TraceLines), one lazy entry per header and frame line, all
// stamped with one timestamp so the trace reads as one block.
func (l *Logger) Trace(pid, tid int, level Level, tag string, thr *javalang.Throwable) {
	l.trace(l.now(), pid, tid, level, tag, thr)
}

// FatalException appends the block ART's uncaught-exception handler logs
// when thr kills process proc: "FATAL EXCEPTION: main", "Process: <proc>,
// PID: <pid>", then thr's trace, under AndroidRuntime at Error level, with
// pid as PID and TID and one timestamp. Only the constant first line is
// eager.
func (l *Logger) FatalException(pid int, proc string, thr *javalang.Throwable) {
	t := l.now()
	l.lazyAt(t, pid, pid, Error, TagAndroidRuntime, "FATAL EXCEPTION: main", &Payload{})
	l.lazyAt(t, pid, pid, Error, TagAndroidRuntime, "", &Payload{Op: MsgFatalProcess, Verb: proc, N: int32(pid)})
	l.trace(t, pid, pid, Error, TagAndroidRuntime, thr)
}

func (l *Logger) trace(t time.Time, pid, tid int, level Level, tag string, thr *javalang.Throwable) {
	op := MsgException
	for cur := thr; cur != nil; cur = cur.Cause {
		text, p := ThrownPayload(op, cur)
		l.lazyAt(t, pid, tid, level, tag, text, &p)
		for i := range cur.Stack {
			f := &cur.Stack[i]
			l.lazyAt(t, pid, tid, level, tag, "", &Payload{Op: MsgFrame, Verb: f.Class, Act: f.Method, Data: f.File, N: int32(f.Line)})
		}
		op = MsgCausedBy
	}
}

// ParseLine parses one threadtime-formatted line back into an Entry. The
// year is taken from the provided base year because logcat omits it. ok is
// false for lines that do not look like threadtime output.
func ParseLine(line string, year int) (Entry, bool) {
	// Format: "01-02 15:04:05.000 <pid> <tid> <L> <tag>: <message>"
	if len(line) < 19 {
		return Entry{}, false
	}
	ts, err := time.Parse(threadtimeLayout, line[:18])
	if err != nil {
		return Entry{}, false
	}
	ts = ts.AddDate(year, 0, 0)
	rest := strings.TrimSpace(line[18:])
	fields := strings.Fields(rest)
	if len(fields) < 4 {
		return Entry{}, false
	}
	var pid, tid int32
	if _, err := fmt.Sscanf(fields[0], "%d", &pid); err != nil {
		return Entry{}, false
	}
	if _, err := fmt.Sscanf(fields[1], "%d", &tid); err != nil {
		return Entry{}, false
	}
	var level Level
	switch fields[2] {
	case "V":
		level = Verbose
	case "D":
		level = Debug
	case "I":
		level = Info
	case "W":
		level = Warn
	case "E":
		level = Error
	case "F":
		level = Fatal
	default:
		return Entry{}, false
	}
	// Tag runs up to the first ": " after the level field.
	idx := strings.Index(rest, fields[2]+" ")
	if idx < 0 {
		return Entry{}, false
	}
	tagAndMsg := rest[idx+2:]
	tag, msg, found := strings.Cut(tagAndMsg, ": ")
	if !found {
		tag = strings.TrimSuffix(tagAndMsg, ":")
		msg = ""
	}
	e := Entry{PID: pid, TID: tid, Level: level, Tag: tag, Message: msg}
	e.SetTime(ts)
	return e, true
}
