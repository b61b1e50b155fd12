package logcat

import (
	"strconv"
	"strings"

	"repro/internal/intent"
	"repro/internal/javalang"
)

// EventKind discriminates a decoded Event. Each kind's comment names the
// line it decodes and, after the colon, the Event fields it sets.
type EventKind uint8

const (
	EventNone      EventKind = iota // nothing a consumer reads (dispatches, banners, open-block lines)
	EventDelivery                   // "Delivering to <type> cmp=<flat> pid=<n>": PID, Comp, Text (type)
	EventDenial                     // "java.lang.SecurityException: ... targeting <flat>": Comp
	EventRejection                  // "Exception thrown delivering intent to cmp=<flat>: <throwable>": Comp, Class
	EventCaught                     // "caught exception while handling intent: <throwable>": PID, Class
	EventANR                        // "ANR in <proc> (<flat>)": Proc, Text (flat as logged), Comp (zero if unparsable)
	EventFatal                      // a FATAL EXCEPTION block ended by "Process <name> (pid <n>) has died": PID, Proc, Classes, Frames
	EventSignal                     // "Fatal signal <sig> ..." killing a core service: Proc, Text (signal)
	EventWatchdog                   // "... (client <proc> unresponsive) ...", first reboot anchor: Proc
	EventAmbient                    // "unable to bind AmbientService for <flat> ...", second reboot anchor: Comp
	EventReboot                     // "!!! REBOOTING ..."
	EventVerdict                    // "VERDICT verdict=<v> fault=<k> target=<t> app=<pkg> ...": Verdict, Fault, Target, Proc
	EventAppLine                    // any other app-tag line, a candidate ANR trace: Text
)

// Event is one decoded log line; fields outside its Kind's stay zero.
type Event struct {
	Kind  EventKind
	PID   int
	Comp  intent.ComponentName
	Class javalang.Class
	Proc  string
	Text  string
	// Classes is a fatal block's exception chain, outermost wrapper first
	// and root cause last, as ART prints it; Frames are the root-cause
	// section's frames, innermost first, each as "pkg.Class.method".
	Classes, Frames        []string
	Verdict, Fault, Target string
}

// Decoder turns log entries, in log order, into typed events. It is the one
// reader of the line formats the device logs: consumers (classification,
// crash triage) switch on its events instead of parsing text. It is
// stateful — FATAL EXCEPTION blocks span lines and are reassembled per PID —
// so each consumer owns one. The zero value is ready to use.
//
// A lazy Payload decodes to the event its rendered text decodes to
// (FuzzDecode pins this), so a pulled dump decodes like the live stream.
// Dispatch announcements and resolution failures are neither rendered nor
// parsed. The other payloads the device logs decode from their operands:
// a Permission Denial from its component field, an exception from its
// class, a FATAL EXCEPTION block's lines and the death ending it from
// their process, frame and PID operands. An operand whose rendered text
// would parse back to something else takes the text path.
type Decoder struct {
	ev     Event               // the last decoded event, which Decode returns
	blocks map[int]*fatalBlock // in-flight EventFatal reassemblies, by PID
	// spare holds ended blocks for reuse: a crash-heavy campaign opens one
	// block per crash.
	spare []*fatalBlock
	// sites memoizes frame identities, "<class>.<method>", by class and
	// method: a component's crashes repeat its stack.
	sites map[[2]string]string
	// comps memoizes component parses: lines of a pulled dump repeat per
	// component, and a short-form flat ("pkg/.Cls") allocates on every
	// parse.
	comps map[string]intent.ComponentName
	// denied memoizes deniedComponent's last answer: a campaign draws its
	// denials in runs against one component.
	denied struct {
		c, cn intent.ComponentName
		ok    bool
	}
}

// fatalBlock is an in-flight FATAL EXCEPTION block. Its slices are scratch
// reused across blocks; the event a block ends as gets copies.
type fatalBlock struct {
	proc    string
	classes []string
	frames  []string
}

// Decode returns the event e carries (Kind EventNone when there is none).
// The event is the decoder's own and the next Decode overwrites it; Event
// is large, and a per-line copy of it would cost more than decoding most
// lines does.
func (d *Decoder) Decode(e *Entry) *Event {
	if d.ev.Kind != EventNone {
		d.ev = Event{}
	}
	p := &e.Payload
	switch am, rt := e.Tag == TagActivityManager, e.Tag == TagAndroidRuntime; {
	case p.Op == MsgEager:
		d.decodeText(e, e.Message)
	case p.Op == MsgCaught:
		d.thrownLazy(EventCaught, int(e.PID), intent.ComponentName{}, e)
	case am && p.Op == MsgDelivering:
		ev := d.emit(EventDelivery)
		ev.PID, ev.Comp, ev.Text = int(p.N), p.Comp, p.Verb
	case am && p.Op == MsgRejected:
		d.thrownLazy(EventRejection, 0, p.Comp, e)
	case am && (p.Op == MsgDenyProtected || p.Op == MsgDenyNotExported || p.Op == MsgDenyPermission):
		if cn, ok := d.deniedComponent(p.Comp); ok {
			d.emit(EventDenial).Comp = cn
		}
	case am && p.Op == MsgDied && strings.IndexByte(p.Verb, '(') < 0:
		// The text path finds the PID after the first "(pid "; a name
		// without '(' holds none.
		d.finalize(int(p.N))
	case rt && (p.Op == MsgException || p.Op == MsgCausedBy || p.Op == MsgFrame || p.Op == MsgFatalProcess):
		d.runtimeLazy(e)
	case !am || p.Op != MsgDispatch && p.Op != MsgNotFound:
		// A payload under a tag the device never logs it with, or whose
		// operands do not decode structurally: decode its text. (MsgNotFound
		// lines name no event: they are not SecurityExceptions.)
		d.decodeText(e, e.Msg())
	}
	return &d.ev
}

// emit makes the decoder's event one of kind k and returns it for its
// fields to be set.
func (d *Decoder) emit(k EventKind) *Event {
	d.ev.Kind = k
	return &d.ev
}

func (d *Decoder) decodeText(e *Entry, msg string) {
	// Apps log caught exceptions under their process name, but the line
	// reads the same whichever tag carries it.
	if header, ok := strings.CutPrefix(msg, "caught exception while handling intent: "); ok {
		d.thrown(EventCaught, int(e.PID), intent.ComponentName{}, header)
		return
	}
	switch e.Tag {
	case TagActivityManager:
		d.activityManager(msg)
	case TagAndroidRuntime:
		d.runtime(int(e.PID), msg)
	case TagDEBUG:
		d.nativeSignal(msg)
	case TagSystemServer:
		d.systemServer(msg)
	case TagWatchdog:
		d.watchdog(msg)
	default:
		if e.Tag == TagFaultInject && strings.HasPrefix(msg, "VERDICT ") {
			d.verdict(msg)
		} else {
			d.emit(EventAppLine).Text = msg
		}
	}
}

// component parses a flat component name through the memo.
func (d *Decoder) component(flat string) (intent.ComponentName, bool) {
	cn, ok := d.comps[flat]
	if !ok {
		if cn, ok = intent.UnflattenComponent(flat); ok {
			if d.comps == nil {
				d.comps = make(map[string]intent.ComponentName)
			}
			d.comps[flat] = cn
		}
	}
	return cn, ok
}

// deniedComponent returns the component a Permission Denial line naming c
// decodes to: the text after its last " targeting ", trimmed and parsed.
// The flat form of an installed component parses back to the component
// itself, which the fast path checks from c's fields; anything else (an
// empty class, a class starting with '.', a package holding '/', blanks or
// non-ASCII bytes) takes the text path over the rendered flat.
func (d *Decoder) deniedComponent(c intent.ComponentName) (intent.ComponentName, bool) {
	m := &d.denied // its zero value holds the zero component's answer
	if c == m.c {
		return m.cn, m.ok
	}
	m.c = c
	if plainName(c.Package) && plainName(c.Class) && c.Class[0] != '.' && !strings.Contains(c.Package, "/") {
		m.cn, m.ok = c, true
	} else {
		tail := string(appendTargeting(nil, c))
		i := strings.LastIndex(tail, targetingMarker)
		m.cn, m.ok = d.component(strings.TrimSpace(tail[i+len(targetingMarker):]))
	}
	return m.cn, m.ok
}

// plainName reports whether s is non-empty printable ASCII without blanks.
func plainName(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f {
			return false
		}
	}
	return true
}

func (d *Decoder) activityManager(msg string) {
	if rest, ok := strings.CutPrefix(msg, "Delivering to "); ok {
		kind, rest, ok1 := strings.Cut(rest, " cmp=")
		flat, pidText, ok2 := strings.Cut(rest, " pid=")
		if !ok1 || !ok2 {
			return
		}
		cn, ok3 := d.component(flat)
		pid, err := strconv.Atoi(strings.TrimSpace(pidText))
		if ok3 && err == nil {
			ev := d.emit(EventDelivery)
			ev.PID, ev.Comp, ev.Text = pid, cn, kind
		}
	} else if strings.HasPrefix(msg, string(javalang.ClassSecurity)) {
		const marker = " targeting "
		i := strings.LastIndex(msg, marker)
		if i < 0 {
			return
		}
		if cn, ok := d.component(strings.TrimSpace(msg[i+len(marker):])); ok {
			d.emit(EventDenial).Comp = cn
		}
	} else if rest, ok := strings.CutPrefix(msg, "Exception thrown delivering intent to cmp="); ok {
		flat, header, ok := strings.Cut(rest, ": ")
		if !ok {
			return
		}
		if cn, ok := d.component(flat); ok {
			d.thrown(EventRejection, 0, cn, header)
		}
	} else if rest, ok := strings.CutPrefix(msg, "ANR in "); ok {
		proc, comp, ok := strings.Cut(rest, " (")
		if ok {
			comp = strings.TrimSuffix(comp, ")")
			cn, _ := d.component(comp)
			ev := d.emit(EventANR)
			ev.Proc, ev.Text, ev.Comp = proc, comp, cn
		}
	} else if strings.HasPrefix(msg, "Process ") && strings.Contains(msg, "has died") {
		// "Process <name> (pid <n>) has died"
		_, rest, _ := strings.Cut(msg, "(pid ")
		pidText, _, ok := strings.Cut(rest, ")")
		if pid, err := strconv.Atoi(pidText); ok && err == nil {
			d.finalize(pid)
		}
	}
}

// thrown emits an EventRejection or EventCaught naming header's exception
// class, unless header is not an exception header.
func (d *Decoder) thrown(kind EventKind, pid int, cn intent.ComponentName, header string) {
	if class, _, ok := javalang.ParseHeader(header); ok {
		ev := d.emit(kind)
		ev.PID, ev.Comp, ev.Class = pid, cn, class
	}
}

// thrownLazy is thrown for a lazy MsgRejected or MsgCaught entry, reading
// the class operand instead of parsing the rendered exception.
func (d *Decoder) thrownLazy(kind EventKind, pid int, cn intent.ComponentName, e *Entry) {
	switch class := e.Payload.Verb; {
	case class == "":
		d.thrown(kind, pid, cn, e.Message)
	case isHeaderClass(class):
		ev := d.emit(kind)
		ev.PID, ev.Comp, ev.Class = pid, cn, javalang.Class(class)
	default:
		d.thrown(kind, pid, cn, string(appendThrown(nil, class, e.Message)))
	}
}

// isHeaderClass reports whether an exception header rendered from class
// operand class, with any message, parses back to class.
func isHeaderClass(class string) bool {
	c, _, ok := javalang.ParseHeader(class)
	return ok && string(c) == class
}

// runtime feeds one AndroidRuntime line into its PID's FATAL EXCEPTION
// block, opening a new block on the block's first line.
func (d *Decoder) runtime(pid int, msg string) {
	if msg == "FATAL EXCEPTION: main" {
		d.openBlock(pid)
		return
	}
	blk, ok := d.blocks[pid]
	if !ok {
		return
	}
	if rest, ok := strings.CutPrefix(msg, "Process: "); ok {
		blk.setProc(rest) // "Process: <name>, PID: <n>"
	} else if strings.HasPrefix(msg, "\tat ") || strings.HasPrefix(msg, "at ") {
		if f, ok := normalizeFrame(msg); ok {
			blk.frames = append(blk.frames, f)
		}
	} else if class, _, ok := javalang.ParseHeader(msg); ok {
		blk.addClass(string(class))
	}
}

// runtimeLazy is runtime for a lazy block line under AndroidRuntime,
// reading its operands where they parse back unchanged from the text.
func (d *Decoder) runtimeLazy(e *Entry) {
	p := &e.Payload
	if p.Op == MsgException && !isHeaderClass(p.Verb) {
		// Unlike the other ops' fixed prefixes, its text could read as
		// anything.
		d.decodeText(e, e.Msg())
		return
	}
	blk, ok := d.blocks[int(e.PID)]
	if !ok {
		return
	}
	switch {
	case p.Op == MsgFatalProcess:
		blk.setProc(p.Verb)
	case p.Op == MsgFrame && frameName(p.Verb) && frameName(p.Act):
		blk.frames = append(blk.frames, d.site(p.Verb, p.Act))
	case p.Op != MsgFrame && isHeaderClass(p.Verb):
		blk.addClass(p.Verb)
	default:
		d.runtime(int(e.PID), e.Msg())
	}
}

// frameName reports whether s, as a frame's class or method, survives
// normalizeFrame unchanged: printable ASCII without blanks or '('.
func frameName(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c <= ' ' || c >= 0x7f || c == '(' {
			return false
		}
	}
	return true
}

// site returns the frame identity "<class>.<method>" through the memo.
func (d *Decoder) site(class, method string) string {
	k := [2]string{class, method}
	s, ok := d.sites[k]
	if !ok {
		if d.sites == nil {
			d.sites = make(map[[2]string]string)
		}
		s = class + "." + method
		d.sites[k] = s
	}
	return s
}

// openBlock starts pid's FATAL EXCEPTION block, replacing any open one.
func (d *Decoder) openBlock(pid int) {
	if d.blocks == nil {
		d.blocks = make(map[int]*fatalBlock)
	}
	blk, ok := d.blocks[pid]
	if !ok {
		if n := len(d.spare); n > 0 {
			blk, d.spare = d.spare[n-1], d.spare[:n-1]
		} else {
			blk = new(fatalBlock)
		}
		d.blocks[pid] = blk
	}
	blk.proc, blk.classes, blk.frames = "", blk.classes[:0], blk.frames[:0]
}

// setProc sets the block's process from the text after "Process: ".
func (b *fatalBlock) setProc(rest string) {
	name, _, _ := strings.Cut(rest, ",")
	b.proc = strings.TrimSpace(name)
}

// addClass starts a new exception section, which owns the frames that
// follow, so the root cause, the last section, ends up owning the frames.
func (b *fatalBlock) addClass(class string) {
	b.classes = append(b.classes, class)
	b.frames = b.frames[:0]
}

// finalize ends pid's open block as the decoded event; a block that named
// no exception is dropped.
func (d *Decoder) finalize(pid int) {
	blk, ok := d.blocks[pid]
	if !ok || pid <= 0 {
		return
	}
	delete(d.blocks, pid)
	d.spare = append(d.spare, blk)
	if nc := len(blk.classes); nc > 0 {
		ev := d.emit(EventFatal)
		ev.PID, ev.Proc = pid, blk.proc
		// The event's lists share one allocation; consumers keep them.
		both := append(append(make([]string, 0, nc+len(blk.frames)), blk.classes...), blk.frames...)
		ev.Classes = both[:nc:nc]
		if len(both) > nc {
			ev.Frames = both[nc:]
		}
	}
}

// normalizeFrame reduces an ART frame line to its "pkg.Class.method"
// identity, "\tat com.foo.Bar.baz(Bar.java:42)" -> "com.foo.Bar.baz": line
// numbers shift between builds, the frame identity does not.
func normalizeFrame(line string) (string, bool) {
	s := strings.TrimPrefix(strings.TrimSpace(line), "at ")
	if i := strings.IndexByte(s, '('); i >= 0 {
		s = s[:i]
	}
	s = strings.TrimSpace(s)
	return s, s != ""
}

// nativeSignal decodes debuggerd's "Fatal signal <sig> ..." when it names a
// core service whose death escalates toward a reboot.
func (d *Decoder) nativeSignal(msg string) {
	if !strings.HasPrefix(msg, "Fatal signal ") {
		return
	}
	var proc string
	switch {
	case strings.Contains(msg, "sensorservice"):
		proc = "sensorservice"
	case strings.Contains(msg, "system_server"):
		proc = "system_server"
	default:
		return
	}
	sig := "SIG?"
	if strings.Contains(msg, javalang.SIGABRT) {
		sig = javalang.SIGABRT
	} else if strings.Contains(msg, javalang.SIGSEGV) {
		sig = javalang.SIGSEGV
	}
	ev := d.emit(EventSignal)
	ev.Proc, ev.Text = proc, sig
}

func (d *Decoder) systemServer(msg string) {
	if rest, ok := strings.CutPrefix(msg, "unable to bind AmbientService for "); ok {
		flat, _, _ := strings.Cut(rest, " after")
		if cn, ok := d.component(strings.TrimSpace(flat)); ok {
			d.emit(EventAmbient).Comp = cn
		}
	} else if strings.HasPrefix(msg, "!!! REBOOTING") {
		// Every process dies with the reboot. crashProcess logs a block and
		// its "has died" line back to back, so no block can straddle one.
		for _, blk := range d.blocks {
			d.spare = append(d.spare, blk)
		}
		clear(d.blocks)
		d.emit(EventReboot)
	}
}

// watchdog decodes "Blocked in handler on sensor thread (client <proc>
// unresponsive); sending SIGABRT to sensorservice".
func (d *Decoder) watchdog(msg string) {
	_, rest, ok := strings.Cut(msg, "(client ")
	proc, _, ok2 := strings.Cut(rest, " unresponsive")
	if ok && ok2 {
		d.emit(EventWatchdog).Proc = proc
	}
}

// verdict decodes "VERDICT verdict=<v> fault=<k> target=<t> app=<pkg>
// window=<a>-<b> probes=<f>/<n>"; one missing its verdict or fault is not.
func (d *Decoder) verdict(msg string) {
	var verdict, fault, target, app string
	for _, f := range strings.Fields(msg) {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			continue
		}
		switch key {
		case "verdict":
			verdict = val
		case "fault":
			fault = val
		case "target":
			target = val
		case "app":
			app = val
		}
	}
	if verdict != "" && fault != "" {
		ev := d.emit(EventVerdict)
		ev.Verdict, ev.Fault, ev.Target, ev.Proc = verdict, fault, target, app
	}
}
