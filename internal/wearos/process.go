// Package wearos simulates the Android (Wear) operating system layer the
// QGJ study exercises: intent dispatch through ActivityManager, permission
// enforcement, application process lifecycle, the ANR watchdog, and the
// system server whose error-accumulation ("software aging") behaviour
// produces the paper's device reboots.
//
// The OS is intentionally single-threaded: the whole simulation is driven
// from one goroutine with a virtual clock, which keeps multi-million-intent
// campaigns deterministic. An OS value must not be shared across goroutines.
package wearos

// Well-known Android UIDs.
const (
	UIDSystem  = 1000
	UIDShell   = 2000
	UIDAppBase = 10000
)

// Process models one application (or native) process.
type Process struct {
	PID   int
	Name  string // process name; for apps this is the package name
	Alive bool
}

// processTable allocates PIDs and tracks app processes by name.
type processTable struct {
	nextPID int
	byName  map[string]*Process
}

func newProcessTable(firstPID int) *processTable {
	return &processTable{
		nextPID: firstPID,
		byName:  make(map[string]*Process),
	}
}

func (t *processTable) allocPID() int {
	pid := t.nextPID
	t.nextPID++
	return pid
}

// start launches (or relaunches) the named process.
func (t *processTable) start(name string) *Process {
	p := &Process{PID: t.allocPID(), Name: name, Alive: true}
	t.byName[name] = p
	return p
}

// get returns the live process with the given name, or nil.
func (t *processTable) get(name string) *Process {
	p := t.byName[name]
	if p == nil || !p.Alive {
		return nil
	}
	return p
}

// kill marks the process dead; the entry stays in byName until the
// process restarts.
func (t *processTable) kill(name string) *Process {
	p := t.byName[name]
	if p == nil {
		return nil
	}
	p.Alive = false
	return p
}

// killAll marks every process dead (device reboot) and returns how many
// were alive.
func (t *processTable) killAll() int {
	n := 0
	for _, p := range t.byName {
		if p.Alive {
			p.Alive = false
			n++
		}
	}
	return n
}

// live returns the number of live processes.
func (t *processTable) live() int {
	n := 0
	for _, p := range t.byName {
		if p.Alive {
			n++
		}
	}
	return n
}
