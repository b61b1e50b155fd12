package wearos

import (
	"math"
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
)

// AgingConfig parameterizes the system server's error-accumulation model.
//
// The paper's central reboot finding (Section IV-B) is that reboots "did not
// occur in response to a single deadly intent but rather at specific states
// of the device due to escalation of multiple errors" — i.e. software aging.
// We model that as an instability score: every crash/ANR adds to it, it
// decays exponentially with (virtual) time, core-service failures add large
// jumps, and crossing the threshold reboots the device.
type AgingConfig struct {
	// HalfLife is the exponential decay half-life of instability.
	HalfLife time.Duration
	// CrashWeight is added per third-party app crash; BuiltInCrashWeight per
	// built-in app crash (built-ins share more state with the platform).
	CrashWeight        float64
	BuiltInCrashWeight float64
	// ANRWeight is added per ANR.
	ANRWeight float64
	// CoreServiceWeight is added when a core native service (sensorservice,
	// system_server subsystem) dies. It exceeds RebootThreshold on its own:
	// losing a core service is the catastrophic step of both escalation
	// chains in the paper.
	CoreServiceWeight float64
	// RebootThreshold is the instability level that triggers a reboot.
	RebootThreshold float64
	// RepeatWindow bounds crash/ANR de-duplication: a process failing again
	// within the window contributes only RepeatCrashWeight/RepeatANRWeight.
	// Android similarly throttles crash-looping processes; without this, a
	// single badly validating component crash-looping through a campaign
	// would reboot the device, which the paper never observed.
	RepeatWindow      time.Duration
	RepeatCrashWeight float64
	RepeatANRWeight   float64
	// SensorClientANRLimit is how many ANRs a sensor-client process may
	// accumulate before the system SIGABRTs the sensor service (post-mortem
	// #1 in the paper).
	SensorClientANRLimit int
	// Rejuvenation implements the mitigation the paper's Section IV-E
	// proposes ("research on software aging and rejuvenation can help
	// detect and potentially recover from such accumulated errors"): when
	// enabled, the system proactively restarts a process whose ANR count
	// reaches RejuvenateANRLimit (before the watchdog shoots the sensor
	// service) and clears a component's start-failure streak at
	// RejuvenateCrashStreak (before the Ambient Service bind fails),
	// defusing both escalation chains.
	RejuvenationEnabled   bool
	RejuvenateANRLimit    int
	RejuvenateCrashStreak int
	// StartFailureLimit is how many consecutive failed starts of an
	// ambient-bound component are tolerated before the Ambient Service bind
	// fails and the system process segfaults (post-mortem #2).
	StartFailureLimit int
}

// DefaultAgingConfig mirrors the dynamics observed in the paper: two
// reboots over ~1.5M injections, each requiring an escalation chain.
func DefaultAgingConfig() AgingConfig {
	return AgingConfig{
		HalfLife:             45 * time.Second,
		CrashWeight:          1.0,
		BuiltInCrashWeight:   2.0,
		ANRWeight:            6.0,
		CoreServiceWeight:    70.0,
		RebootThreshold:      60.0,
		RepeatWindow:         10 * time.Second,
		RepeatCrashWeight:    0.02,
		RepeatANRWeight:      0.2,
		SensorClientANRLimit: 3,
		StartFailureLimit:    4,
		// Rejuvenation is off by default: the paper's device had none,
		// which is why it rebooted. Enable via RejuvenatedAgingConfig.
		RejuvenateANRLimit:    2,
		RejuvenateCrashStreak: 3,
	}
}

// RejuvenatedAgingConfig returns the default aging model with proactive
// rejuvenation enabled — the counterfactual study for Section IV-E's
// mitigation proposal.
func RejuvenatedAgingConfig() AgingConfig {
	cfg := DefaultAgingConfig()
	cfg.RejuvenationEnabled = true
	return cfg
}

// SystemServer tracks platform-wide health: the instability score, per-
// process ANR counts, and per-component start-failure streaks. It decides
// when the device reboots.
type SystemServer struct {
	cfg AgingConfig
	now func() time.Time
	log *logcat.Logger

	instability float64
	lastDecay   time.Time

	anrByProcess  map[string]int
	startFailures map[intent.ComponentName]int
	lastCrashAt   map[string]time.Time
	lastANRAt     map[string]time.Time

	// requestReboot is wired by the OS; calling it tears the device down.
	requestReboot func(reason string)
	// abortSensorService is wired by the OS; SIGABRTs the sensor service.
	abortSensorService func()
	// restartProcess is wired by the OS; rejuvenation kills the process so
	// it restarts fresh on next delivery.
	restartProcess func(proc string)

	rebootPending bool
	rejuvenations int
	timeline      []InstabilitySample
}

// InstabilitySample is one point of the instability timeline, recorded on
// every aging event — the raw material for software-aging analysis
// (Cotroneo et al.'s metrics suggestion in Section IV-E).
type InstabilitySample struct {
	At    time.Time
	Value float64
}

// newSystemServer builds the system server; the OS wires the callbacks
// after construction.
func newSystemServer(cfg AgingConfig, now func() time.Time, log *logcat.Logger) *SystemServer {
	return &SystemServer{
		cfg:           cfg,
		now:           now,
		log:           log,
		lastDecay:     now(),
		anrByProcess:  make(map[string]int),
		startFailures: make(map[intent.ComponentName]int),
		lastCrashAt:   make(map[string]time.Time),
		lastANRAt:     make(map[string]time.Time),
	}
}

// Instability returns the current decayed instability score.
func (s *SystemServer) Instability() float64 {
	s.decay()
	return s.instability
}

func (s *SystemServer) decay() {
	now := s.now()
	dt := now.Sub(s.lastDecay)
	if dt <= 0 {
		return
	}
	s.lastDecay = now
	// Zero times the decay factor is zero: while nothing has failed since
	// boot (or everything decayed away), skipping the multiply is bit-exact.
	if s.cfg.HalfLife <= 0 || s.instability == 0 {
		return
	}
	s.instability *= math.Exp2(-float64(dt) / float64(s.cfg.HalfLife))
}

func (s *SystemServer) add(amount float64) {
	s.decay()
	s.instability += amount
	s.recordSample()
	if s.instability >= s.cfg.RebootThreshold && !s.rebootPending {
		s.rebootPending = true
	}
}

// maxTimelineSamples bounds the timeline like a metrics ring.
const maxTimelineSamples = 8192

func (s *SystemServer) recordSample() {
	s.timeline = append(s.timeline, InstabilitySample{At: s.now(), Value: s.instability})
	if len(s.timeline) > maxTimelineSamples {
		s.timeline = s.timeline[len(s.timeline)-maxTimelineSamples:]
	}
}

// InstabilityTimeline returns a copy of the recorded samples since boot.
func (s *SystemServer) InstabilityTimeline() []InstabilitySample {
	return append([]InstabilitySample(nil), s.timeline...)
}

// Rejuvenations counts proactive recoveries performed since boot.
func (s *SystemServer) Rejuvenations() int { return s.rejuvenations }

// RecordAppCrash feeds one application crash into the aging model. Repeat
// crashes of the same process inside RepeatWindow carry a much smaller
// weight (crash-loop throttling).
func (s *SystemServer) RecordAppCrash(proc string, builtIn bool) {
	now := s.now()
	w := s.cfg.CrashWeight
	if builtIn {
		w = s.cfg.BuiltInCrashWeight
	}
	if last, ok := s.lastCrashAt[proc]; ok && now.Sub(last) <= s.cfg.RepeatWindow {
		w = s.cfg.RepeatCrashWeight
	}
	s.lastCrashAt[proc] = now
	s.add(w)
}

// RecordANR feeds an ANR into the aging model. usesSensors marks processes
// that hold SensorManager registrations; enough ANRs in such a process make
// the system shoot the sensor service (SIGABRT), reproducing the paper's
// first reboot post-mortem.
func (s *SystemServer) RecordANR(proc string, usesSensors bool) {
	now := s.now()
	s.anrByProcess[proc]++
	w := s.cfg.ANRWeight
	if last, ok := s.lastANRAt[proc]; ok && now.Sub(last) <= s.cfg.RepeatWindow {
		w = s.cfg.RepeatANRWeight
	}
	s.lastANRAt[proc] = now
	s.add(w)
	if s.cfg.RejuvenationEnabled && s.cfg.RejuvenateANRLimit > 0 &&
		s.anrByProcess[proc] == s.cfg.RejuvenateANRLimit {
		s.log.Log(1000, 1000, logcat.Info, logcat.TagSystemServer,
			"rejuvenation: proactively restarting %s after %d ANRs", proc, s.anrByProcess[proc])
		s.anrByProcess[proc] = 0
		s.rejuvenations++
		if s.restartProcess != nil {
			s.restartProcess(proc)
		}
		return
	}
	if usesSensors && s.anrByProcess[proc] == s.cfg.SensorClientANRLimit {
		s.log.Log(1000, 1000, logcat.Warn, logcat.TagWatchdog,
			"Blocked in handler on sensor thread (client %s unresponsive); sending %s to sensorservice",
			proc, javalang.SIGABRT)
		if s.abortSensorService != nil {
			s.abortSensorService()
		}
	}
}

// RecordCoreServiceDown feeds the death of a core native service into the
// aging model.
func (s *SystemServer) RecordCoreServiceDown(name, signal string) {
	s.log.Log(1000, 1000, logcat.Error, logcat.TagSystemServer,
		"core service %s died (%s); system entering unstable state", name, signal)
	s.add(s.cfg.CoreServiceWeight)
}

// RecordStartFailure feeds one failed component start into the model.
// ambientBound marks components that must bind to the Ambient Service (the
// core AW low-power service); a streak of failures there segfaults the
// system process — the paper's second reboot post-mortem.
func (s *SystemServer) RecordStartFailure(cmp intent.ComponentName, ambientBound bool) {
	s.startFailures[cmp]++
	if s.cfg.RejuvenationEnabled && s.cfg.RejuvenateCrashStreak > 0 &&
		s.startFailures[cmp] == s.cfg.RejuvenateCrashStreak {
		s.log.Log(1000, 1000, logcat.Info, logcat.TagSystemServer,
			"rejuvenation: clearing crash-loop state for %s after %d consecutive start failures",
			cmp.FlattenToString(), s.startFailures[cmp])
		delete(s.startFailures, cmp)
		s.rejuvenations++
		return
	}
	if ambientBound && s.startFailures[cmp] == s.cfg.StartFailureLimit {
		s.log.Log(1000, 1000, logcat.Error, logcat.TagSystemServer,
			"unable to bind AmbientService for %s after repeated start failures", cmp.FlattenToString())
		s.log.Log(1000, 1000, logcat.Info, logcat.TagDEBUG,
			"Fatal signal %s in system_server (pid 1000)", javalang.SIGSEGV)
		s.RecordCoreServiceDown("system_server", javalang.SIGSEGV)
	}
}

// RecordStartSuccess resets the failure streak for cmp.
func (s *SystemServer) RecordStartSuccess(cmp intent.ComponentName) {
	delete(s.startFailures, cmp)
}

// MaybeReboot performs the reboot if the threshold was crossed. The OS
// calls this between deliveries so that teardown never reenters dispatch.
// It reports whether a reboot happened.
func (s *SystemServer) MaybeReboot() bool {
	if !s.rebootPending {
		return false
	}
	s.rebootPending = false
	if s.requestReboot != nil {
		s.requestReboot("error accumulation: instability threshold exceeded")
	}
	return true
}

// resetAfterBoot clears the aging state after a reboot.
func (s *SystemServer) resetAfterBoot() {
	s.instability = 0
	s.lastDecay = s.now()
	s.anrByProcess = make(map[string]int)
	s.startFailures = make(map[intent.ComponentName]int)
	s.lastCrashAt = make(map[string]time.Time)
	s.lastANRAt = make(map[string]time.Time)
	s.rebootPending = false
	s.timeline = nil
}
