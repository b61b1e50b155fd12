package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"repro/internal/apps"
	"repro/internal/experiments"
	"repro/internal/farm"
	"repro/internal/service"
	"repro/internal/uifuzz"
)

// Workload names, as BENCHMARK.json lists them.
const (
	wearStudy   = "wear-study"
	serviceWear = "service-wear"
	shardChurn  = "shard-churn"
	uiStudy     = "ui-study"
)

var workloadNames = []string{wearStudy, serviceWear, shardChurn, uiStudy}

// workers is the closed-loop width of every farm workload: two in-process
// farm workers, or two service workers each holding at most one HTTP
// request open.
const workers = 2

// job is everything one child process needs for one repetition. The
// program under test receives only the inputs generated from the workload
// seed: campaign specs or UI options.
type job struct {
	Workload string                 `json:"workload"`
	Specs    []service.CampaignSpec `json:"specs,omitempty"`
	UI       experiments.UIOptions  `json:"ui"`
	Trace    bool                   `json:"trace,omitempty"`
	// SetupOnly stops the child once it is set up: the parent tops up the
	// setup samples of runs with few repetitions this way.
	SetupOnly bool `json:"setupOnly,omitempty"`
	// WorkDir holds the run's scratch files (journals, coordinator data).
	WorkDir string `json:"workDir"`
}

// wearPopulations are the study seeds the paper-scale wear workloads draw
// their app population from: the seeds among 1-40 whose shard records total
// within 3% of the median (330 MB; the range is 237-452 MB) and whose
// largest record is at most 40 MB (the range is 24-58 MB). Crash records and
// their flight-recorder windows are most of the bytes a shard uploads,
// decodes, merges and journals, so a raw seed would swing these workloads'
// cost by 14% (one standard deviation) from one draw to the next.
var wearPopulations = []uint64{2, 9, 11, 18, 24, 30, 35, 37}

// makeJob generates a workload's inputs from the seed. toy shrinks every
// workload to a few seconds in total for the smoke test.
func makeJob(workload string, seed uint64, toy bool) (job, error) {
	j := job{Workload: workload}
	quick, wearPkgs, phonePkgs := 0, []string(nil), []string(nil)
	if toy {
		quick = 16
		wearPkgs = firstPackages(apps.BuildWearFleet(seed), 2)
		phonePkgs = firstPackages(apps.BuildPhoneFleet(seed), 2)
	}
	switch workload {
	case wearStudy, serviceWear:
		// Paper scale: campaigns A-D against the 46-app wear fleet.
		pop := wearPopulations[seed%uint64(len(wearPopulations))]
		if toy {
			pop = seed
		}
		j.Specs = []service.CampaignSpec{{Seed: pop, Quick: quick, Packages: wearPkgs}}
	case shardChurn:
		// Many tiny shards: per-shard fixed costs dominate.
		wearQuick, phoneQuick := 8, 16
		if toy {
			wearQuick = quick
		}
		j.Specs = []service.CampaignSpec{
			{Seed: seed, Fleet: "wear", Campaigns: "ABCDF", Quick: wearQuick, Packages: wearPkgs},
			{Seed: seed, Fleet: "phone", Campaigns: "ABCDF", Quick: phoneQuick, Packages: phonePkgs},
		}
	case uiStudy:
		j.UI = experiments.UIOptions{Seed: seed}
		if toy {
			j.UI.Events = 500
		}
	default:
		return job{}, fmt.Errorf("unknown workload %q (want one of %v)", workload, workloadNames)
	}
	return j, nil
}

func firstPackages(f *apps.Fleet, n int) []string {
	var names []string
	for _, p := range f.Packages[:n] {
		names = append(names, p.Name)
	}
	return names
}

// farmConfigs converts the job's specs into the farm configurations the
// in-process workloads run; shard-churn journals every shard to a
// checkpoint file.
func (j job) farmConfigs() ([]farm.Config, error) {
	var cfgs []farm.Config
	for i, spec := range j.Specs {
		cfg, err := spec.FarmConfig()
		if err != nil {
			return nil, err
		}
		cfg.Sharding.Workers = workers
		if j.Workload == shardChurn {
			cfg.Sharding.Checkpoint = filepath.Join(j.WorkDir, fmt.Sprintf("run-%d.ckpt", i))
		}
		cfgs = append(cfgs, cfg)
	}
	return cfgs, nil
}

// rep is one repetition's measurements, as a child reports them.
type rep struct {
	SetupS  float64 `json:"setupS"`
	WallS   float64 `json:"wallS"`
	CPUS    float64 `json:"cpuS"`
	AllocMB float64 `json:"allocMB"`
	// PeakRSSMB is filled in by the parent from the child's rusage.
	PeakRSSMB float64 `json:"peakRssMB"`
	// Events counts fuzz inputs injected: intents, or UI events on ui-study.
	// Expected is the volume the inputs call for.
	Events   int `json:"events"`
	Expected int `json:"expected"`
	// Ops are shards, HTTP requests (service-wear) or UI modes; FailedOps
	// are the ones that errored or were refused.
	Ops       int    `json:"ops"`
	FailedOps int    `json:"failedOps"`
	Hash      string `json:"hash"`

	// Traced child only: the serial replay's export hash, per-layer metrics
	// and the spans behind them.
	ReplayHash string             `json:"replayHash,omitempty"`
	Layers     map[string]float64 `json:"layers,omitempty"`
	Spans      []span             `json:"spans,omitempty"`
}

// runChild executes one repetition of j. t0 is when the parent started the
// child process, so setup time includes process start and runtime init.
func runChild(j job, t0 time.Time) (*rep, error) {
	if j.Trace {
		return tracedRep(j, t0)
	}
	switch j.Workload {
	case wearStudy, shardChurn:
		return farmRep(j, t0)
	case serviceWear:
		r, _, err := serviceRep(j, t0, nil)
		return r, err
	case uiStudy:
		return uiRep(j, t0)
	}
	return nil, fmt.Errorf("unknown workload %q", j.Workload)
}

// window measures wall time, process CPU time and bytes allocated between
// open and close.
type window struct {
	start time.Time
	cpu   time.Duration
	alloc uint64
}

func openWindow() window {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return window{start: time.Now(), cpu: cpuTime(), alloc: ms.TotalAlloc}
}

func (w window) close(r *rep) {
	r.WallS = time.Since(w.start).Seconds()
	r.CPUS = (cpuTime() - w.cpu).Seconds()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	r.AllocMB = float64(ms.TotalAlloc-w.alloc) / (1 << 20)
}

func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// planIntents plans each config and totals the intents the plans call for.
func planIntents(cfgs []farm.Config) (int, error) {
	total := 0
	for _, cfg := range cfgs {
		p, err := farm.NewPlan(cfg)
		if err != nil {
			return 0, err
		}
		for i := range p.Shards() {
			total += p.EstimatedIntents(i)
		}
	}
	return total, nil
}

// farmRep runs wear-study or shard-churn: farm.Run on each config, then the
// canonical export of each result, hashed in order.
func farmRep(j job, t0 time.Time) (*rep, error) {
	cfgs, err := j.farmConfigs()
	if err != nil {
		return nil, err
	}
	expected, err := planIntents(cfgs)
	if err != nil {
		return nil, err
	}
	r := &rep{SetupS: time.Since(t0).Seconds(), Expected: expected}
	if j.SetupOnly {
		return r, nil
	}
	w := openWindow()
	h := sha256.New()
	for _, cfg := range cfgs {
		res, err := farm.Run(cfg)
		if err != nil {
			return nil, err
		}
		export, err := service.ExportResult(res, cfg.Seed)
		if err != nil {
			return nil, err
		}
		h.Write(export)
		r.Events += res.Sent
		r.Ops += res.Shards
	}
	r.Hash = hex.EncodeToString(h.Sum(nil))
	w.close(r)
	return r, nil
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}

// uiEvents is the per-mode event volume RunUIStudy uses for opts.
func uiEvents(opts experiments.UIOptions) int {
	if opts.Events <= 0 {
		return uifuzz.PaperEventCount
	}
	return opts.Events
}

// uiDigest hashes the Table V outcomes of both mutation modes.
func uiDigest(outs ...uifuzz.Outcome) string {
	h := sha256.New()
	for _, o := range outs {
		fmt.Fprintf(h, "%s injected=%d exceptions=%d crashes=%d system=%d\n",
			o.Mode, o.Injected, o.ExceptionsRaised, o.Crashes, o.SystemCrashes)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// uiRep runs the QGJ-UI study (Table V): both mutation modes, each on a
// freshly booted emulator.
func uiRep(j job, t0 time.Time) (*rep, error) {
	opts := j.UI
	r := &rep{SetupS: time.Since(t0).Seconds(), Expected: 2 * uiEvents(opts), Ops: 2}
	if j.SetupOnly {
		return r, nil
	}
	w := openWindow()
	res, err := experiments.RunUIStudy(opts)
	if err != nil {
		return nil, err
	}
	r.Hash = uiDigest(res.SemiValid, res.Random)
	w.close(r)
	r.Events = res.SemiValid.Injected + res.Random.Injected
	return r, nil
}
