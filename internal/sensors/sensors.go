// Package sensors models the wearable's sensor stack: the native
// SensorService process (libsensorservice.so), the SensorManager framework
// API apps use, and a synthetic heart-rate sensor.
//
// The stack matters to the reproduction because the paper's first device
// reboot originated here: a health app that talks to the heart-rate sensor
// through SensorManager went unresponsive under a sequence of malformed
// intents, the system SIGABRT-ed the SensorService process, and the loss of
// that core service left the OS unstable enough to reboot (Section IV-B).
package sensors

import (
	"sync"

	"repro/internal/javalang"
	"repro/internal/logcat"
)

// Type enumerates the sensors clients register: the heart-rate sensor of
// the paper's post-mortem, the only one the simulated watch's clients use.
type Type int

const HeartRate Type = 1

// String returns the Android sensor name string.
func (t Type) String() string {
	if t == HeartRate {
		return "android.sensor.heart_rate"
	}
	return "android.sensor.unknown"
}

// ServiceState is the lifecycle state of the native SensorService process.
type ServiceState int

const (
	ServiceRunning ServiceState = iota + 1
	ServiceAborted              // killed by SIGABRT, not yet restarted
)

// FaultMode selects an injected degradation of the sensor service, used by
// the fault-injection campaigns (internal/faultinject). FaultNone is normal
// operation.
type FaultMode int

const (
	// FaultNone: normal operation.
	FaultNone FaultMode = iota
	// FaultStall: the service stops answering — reads and registrations
	// time out the way a wedged native service does.
	FaultStall
	// FaultStale: reads succeed but the service replays the last sample it
	// delivered instead of a fresh one (a silently frozen stream).
	FaultStale
)

// String names the fault mode.
func (m FaultMode) String() string {
	switch m {
	case FaultStall:
		return "stall"
	case FaultStale:
		return "stale"
	default:
		return "none"
	}
}

// Service is the native sensor service. It owns listener registrations and
// is a single point of failure: when it dies, every registered client loses
// sensor access and the system becomes unstable.
type Service struct {
	mu        sync.Mutex
	state     ServiceState
	pid       int
	listeners map[string][]Type // client process name -> registered sensors
	log       *logcat.Logger
	// onAbort notifies the system server that a core native service died;
	// wired by the OS at boot.
	onAbort func(signal string)

	fault FaultMode
	// last remembers the freshest sample per sensor so FaultStale can
	// replay it; stalled/stale count how often a fault manifested.
	last    map[Type]float64
	stalled uint64
	stale   uint64
}

// NewService returns a running sensor service with the given native PID.
func NewService(pid int, log *logcat.Logger) *Service {
	return &Service{
		state:     ServiceRunning,
		pid:       pid,
		listeners: make(map[string][]Type),
		log:       log,
	}
}

// PID returns the native process id of the service.
func (s *Service) PID() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.pid
}

// State returns the current lifecycle state.
func (s *Service) State() ServiceState {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.state
}

// OnAbort registers the system-server callback fired when the service is
// killed by a signal.
func (s *Service) OnAbort(fn func(signal string)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.onAbort = fn
}

// SetFaultMode installs (or, with FaultNone, lifts) an injected fault. The
// transition is logged so the fault window is visible in logcat.
func (s *Service) SetFaultMode(m FaultMode) {
	s.mu.Lock()
	prev := s.fault
	s.fault = m
	pid := s.pid
	s.mu.Unlock()
	if prev == m {
		return
	}
	if m == FaultNone {
		s.log.Log(pid, pid, logcat.Info, logcat.TagSensorService,
			"sensorservice recovered from injected %s fault", prev)
		return
	}
	s.log.Log(pid, pid, logcat.Warn, logcat.TagSensorService,
		"sensorservice entering injected %s fault", m)
}

// FaultMode returns the active injected fault.
func (s *Service) FaultMode() FaultMode {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.fault
}

// FaultStats reports how many reads stalled and how many returned stale
// samples since boot — the fault engine's silent-degradation evidence.
func (s *Service) FaultStats() (stalled, stale uint64) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stalled, s.stale
}

// Register adds a listener for client on the sensor. It fails with
// DeadObjectException when the service is down.
func (s *Service) Register(client string, t Type) *javalang.Throwable {
	s.mu.Lock()
	if s.state != ServiceRunning {
		s.mu.Unlock()
		return javalang.Newf(javalang.ClassDeadObject, "sensorservice dead; cannot register %s", t)
	}
	if s.fault == FaultStall {
		s.stalled++
		s.mu.Unlock()
		return javalang.Newf(javalang.ClassRemote,
			"sensorservice not responding; register %s timed out after 5000ms", t)
	}
	s.listeners[client] = append(s.listeners[client], t)
	s.mu.Unlock()
	s.log.Log(s.pid, s.pid, logcat.Debug, logcat.TagSensorService,
		"registering listener for %s (client=%s)", t, client)
	return nil
}

// Listeners returns how many sensors the client has registered.
func (s *Service) Listeners(client string) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.listeners[client])
}

// Read samples the sensor for client. Reading through a dead service or
// without a registration fails the way the framework does.
func (s *Service) Read(client string, t Type) (float64, *javalang.Throwable) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.state != ServiceRunning {
		return 0, javalang.Newf(javalang.ClassDeadObject, "sensorservice dead; cannot read %s", t)
	}
	regs := s.listeners[client]
	found := false
	for _, r := range regs {
		if r == t {
			found = true
			break
		}
	}
	if !found {
		return 0, javalang.Newf(javalang.ClassIllegalState,
			"no listener registered for %s (client=%s)", t, client)
	}
	if s.fault == FaultStall {
		s.stalled++
		return 0, javalang.Newf(javalang.ClassRemote,
			"sensorservice not responding; read %s timed out after 5000ms", t)
	}
	if s.fault == FaultStale {
		// Replay the freshest delivered sample — the caller sees success
		// and a plausible value, never a new one.
		s.stale++
		if s.last == nil {
			s.last = make(map[Type]float64)
		}
		if v, ok := s.last[t]; ok {
			return v, nil
		}
	}
	// A synthetic but plausible reading; its value is irrelevant to the
	// study.
	v := 72.0
	if s.last == nil {
		s.last = make(map[Type]float64)
	}
	s.last[t] = v
	return v, nil
}

// Abort kills the service with the given signal (the system sends SIGABRT
// when a client wedges the service, per the paper's post-mortem). The
// system-server callback is invoked after logging the native crash dump.
func (s *Service) Abort(signal string) {
	s.mu.Lock()
	if s.state == ServiceAborted {
		s.mu.Unlock()
		return
	}
	s.state = ServiceAborted
	pid := s.pid
	cb := s.onAbort
	s.mu.Unlock()

	s.log.Log(pid, pid, logcat.Info, logcat.TagDEBUG,
		"Fatal signal %s in tid %d (sensorservice), process /system/lib/libsensorservice.so", signal, pid)
	s.log.Log(pid, pid, logcat.Error, logcat.TagSensorService,
		"sensorservice terminated by signal %s", signal)
	if cb != nil {
		cb(signal)
	}
}

// Kill terminates the service process without going through the watchdog:
// an external SIGKILL (the fault injector's service-kill window) arrives
// unannounced, so no system-server callback fires — whoever killed the
// service is expected to bring it back via Restart.
func (s *Service) Kill(signal string) {
	s.mu.Lock()
	if s.state == ServiceAborted {
		s.mu.Unlock()
		return
	}
	s.state = ServiceAborted
	pid := s.pid
	s.mu.Unlock()
	s.log.Log(pid, pid, logcat.Warn, logcat.TagSensorService,
		"sensorservice (pid %d) killed by signal %s", pid, signal)
}

// Restart brings the service back after a reboot, with a new PID. A fresh
// process carries no injected fault and no replay cache; the fault counters
// stay monotonic so observers can diff across restarts.
func (s *Service) Restart(pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = ServiceRunning
	s.pid = pid
	s.listeners = make(map[string][]Type)
	s.fault = FaultNone
	s.last = nil
}

// ResetRestart returns the service to its just-booted state with a new
// PID: Restart's semantics plus zeroed fault counters and a dropped replay
// cache. Restart deliberately keeps stalled/stale monotonic so observers
// can diff across reboots; a persistent-mode device reset instead needs
// the zeros a fresh boot starts with, so it uses this variant.
func (s *Service) ResetRestart(pid int) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.state = ServiceRunning
	s.pid = pid
	clear(s.listeners)
	s.fault = FaultNone
	s.last = nil
	s.stalled, s.stale = 0, 0
}
