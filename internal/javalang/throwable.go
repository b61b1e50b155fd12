// Package javalang models the Java/Android exception semantics that the
// paper's entire measurement methodology is expressed in.
//
// Android apps are Java programs: a component that mishandles a malformed
// intent raises a Throwable, and whether that Throwable is caught decides
// whether the manifestation is "no effect", a logged-but-handled exception,
// or a process crash ("FATAL EXCEPTION: main" in logcat). The reproduction
// therefore needs a faithful — if compact — model of Throwable classes,
// cause chains, and Java-style stack traces, because the log analyzer
// classifies outcomes by parsing exactly those artifacts. Classes are plain
// names: no behaviour model reads a class hierarchy.
//
// Throwables are ordinary Go error values here (components *return* them and
// the simulated OS decides their fate); we deliberately do not map them onto
// Go panics, per the house style's "don't panic" rule.
package javalang

import (
	"fmt"
	"strings"
)

// Class identifies a Java exception class by its fully qualified name.
type Class string

// The exception classes observed in the paper's experiments (Figures 2-4,
// Tables IV-V) and raised by the simulated apps and OS.
const (
	ClassRuntime              Class = "java.lang.RuntimeException"
	ClassNullPointer          Class = "java.lang.NullPointerException"
	ClassIllegalArgument      Class = "java.lang.IllegalArgumentException"
	ClassIllegalState         Class = "java.lang.IllegalStateException"
	ClassSecurity             Class = "java.lang.SecurityException"
	ClassUnsupportedOperation Class = "java.lang.UnsupportedOperationException"
	ClassArithmetic           Class = "java.lang.ArithmeticException"
	ClassClassCast            Class = "java.lang.ClassCastException"
	ClassNumberFormat         Class = "java.lang.NumberFormatException"
	ClassStringIndex          Class = "java.lang.StringIndexOutOfBoundsException"
	ClassClassNotFound        Class = "java.lang.ClassNotFoundException"

	ClassIO         Class = "java.io.IOException"
	ClassRemote     Class = "android.os.RemoteException"
	ClassDeadObject Class = "android.os.DeadObjectException"
	ClassTxTooLarge Class = "android.os.TransactionTooLargeException"

	ClassActivityNotFound Class = "android.content.ActivityNotFoundException"
	ClassBadParcelable    Class = "android.os.BadParcelableException"
	ClassWindowBadToken   Class = "android.view.WindowManager$BadTokenException"
)

// Simple returns the class name without the package qualifier, e.g.
// "NullPointerException".
func (c Class) Simple() string {
	s := string(c)
	if i := strings.LastIndexByte(s, '.'); i >= 0 {
		s = s[i+1:]
	}
	return s
}

// Frame is one Java stack-trace frame.
type Frame struct {
	Class  string
	Method string
	File   string
	Line   int
}

func (f Frame) String() string {
	return fmt.Sprintf("at %s.%s(%s:%d)", f.Class, f.Method, f.File, f.Line)
}

// Throwable is a Java exception instance: a class, a message, an optional
// cause chain, and a stack trace. It implements error so it can flow through
// ordinary Go signatures.
type Throwable struct {
	Class   Class
	Message string
	Cause   *Throwable
	Stack   []Frame
}

var _ error = (*Throwable)(nil)

// New constructs a Throwable of class c with the given message.
func New(c Class, msg string) *Throwable {
	return &Throwable{Class: c, Message: msg}
}

// Newf constructs a Throwable with a formatted message.
func Newf(c Class, format string, args ...any) *Throwable {
	return &Throwable{Class: c, Message: fmt.Sprintf(format, args...)}
}

// WithCause sets the cause chain and returns t for fluent construction.
func (t *Throwable) WithCause(cause *Throwable) *Throwable {
	t.Cause = cause
	return t
}

// WithStack sets the stack trace and returns t for fluent construction.
func (t *Throwable) WithStack(frames ...Frame) *Throwable {
	t.Stack = frames
	return t
}

// Error implements the error interface using Java's toString convention.
func (t *Throwable) Error() string {
	if t.Message == "" {
		return string(t.Class)
	}
	return string(t.Class) + ": " + t.Message
}

// Root returns the deepest cause in the chain (t itself when there is no
// cause). The paper's root-cause analysis blames the first exception in a
// temporal chain; within a single Throwable the first-raised exception is
// the root cause.
func (t *Throwable) Root() *Throwable {
	cur := t
	for cur.Cause != nil {
		cur = cur.Cause
	}
	return cur
}

// TraceLines renders the Throwable in the format ART prints to logcat after
// a "FATAL EXCEPTION" header. The analyzer parses this exact shape.
func (t *Throwable) TraceLines() []string {
	var out []string
	prefix := ""
	for cur := t; cur != nil; cur = cur.Cause {
		out = append(out, prefix+cur.Error())
		for _, f := range cur.Stack {
			out = append(out, "\t"+f.String())
		}
		prefix = "Caused by: "
	}
	return out
}

// ParseHeader extracts the exception class from the first line of an ART
// trace ("java.lang.Foo: message" or "Caused by: java.lang.Foo: message").
// ok is false when the line does not look like an exception header.
func ParseHeader(line string) (c Class, msg string, ok bool) {
	line = strings.TrimSpace(strings.TrimPrefix(strings.TrimSpace(line), "Caused by:"))
	name, rest, found := strings.Cut(line, ":")
	if !found {
		name, rest = line, ""
	}
	name = strings.TrimSpace(name)
	if !looksLikeClassName(name) {
		return "", "", false
	}
	return Class(name), strings.TrimSpace(rest), true
}

func looksLikeClassName(s string) bool {
	if !strings.Contains(s, ".") {
		return false
	}
	lastDot := strings.LastIndexByte(s, '.')
	if lastDot == len(s)-1 {
		return false
	}
	simple := s[lastDot+1:]
	if simple[0] < 'A' || simple[0] > 'Z' {
		return false
	}
	for _, r := range s {
		if r != '.' && r != '$' && r != '_' &&
			!(r >= 'a' && r <= 'z') && !(r >= 'A' && r <= 'Z') && !(r >= '0' && r <= '9') {
			return false
		}
	}
	return true
}

// Signal names used by the OS model when native processes die; the two
// reboot post-mortems in the paper involve SIGABRT (SensorService shutdown
// after an ANR) and SIGSEGV (system_server segfault).
const (
	SIGABRT = "SIGABRT"
	SIGSEGV = "SIGSEGV"
)
