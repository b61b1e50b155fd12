package experiments

import (
	"slices"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/javalang"
	"repro/internal/wearos"
)

// Ablations and extensions beyond the paper's headline tables. Each
// function isolates one design choice DESIGN.md calls out, so its effect
// can be measured (and benchmarked) independently.

// RunLegacyPhoneStudy runs the four campaigns against the JJB-era phone
// fleet: the Android 2.x baseline of Maji et al. 2012, against which the
// paper claims input validation improved ("Although these results are
// better compared to [8] where NullPointerExceptions contributed to 46% of
// all exceptions...", Section IV-E). cfg.Fleet is ignored.
func RunLegacyPhoneStudy(cfg farm.Config) (*farm.Result, error) {
	cfg.Fleet = apps.LegacyPhoneFleet
	return farm.Run(cfg)
}

// ValidationEraComparison summarizes the historical contrast: NPE's share
// of crash root causes and the overall crash incidence, legacy vs modern.
type ValidationEraComparison struct {
	LegacyNPEShare  float64
	ModernNPEShare  float64
	LegacyCrashComp int // components that crashed
	ModernCrashComp int
	Components      int
}

// CompareValidationEras extracts the input-validation-improvement signal
// from a legacy and a modern phone study run under the same seed and scale.
func CompareValidationEras(legacy, modern *farm.Result) ValidationEraComparison {
	out := ValidationEraComparison{
		LegacyNPEShare: npeShare(legacy.Combined),
		ModernNPEShare: npeShare(modern.Combined),
		Components:     len(modern.Combined.Components),
	}
	for _, cr := range legacy.Combined.Components {
		if len(cr.CrashRoots) > 0 {
			out.LegacyCrashComp++
		}
	}
	for _, cr := range modern.Combined.Components {
		if len(cr.CrashRoots) > 0 {
			out.ModernCrashComp++
		}
	}
	return out
}

func npeShare(r *analysis.Report) float64 {
	counts := r.CrashClassTotals()
	total, npe := 0, 0
	for _, cc := range counts {
		total += cc.Count
		if cc.Class == javalang.ClassNullPointer {
			npe = cc.Count
		}
	}
	if total == 0 {
		return 0
	}
	return float64(npe) / float64(total)
}

// AgingAblation measures how many reboots one fuzzing pass produces under
// a modified aging configuration. It isolates the system-server design
// choices: crash-loop throttling (RepeatWindow), instability decay
// (HalfLife), and the catastrophic weight of core-service deaths.
type AgingAblation struct {
	Name    string
	Reboots int
	Sent    int
}

// escalationChains are the paper's two reboot scenarios: the campaign that
// trips each chain and the app that carries it.
var escalationChains = []farm.ShardKey{
	{Campaign: core.CampaignA, Package: "com.motorola.omni"},            // sensor escalation
	{Campaign: core.CampaignD, Package: "com.google.android.deskclock"}, // ambient escalation
}

// RunAgingAblations fuzzes the two reboot-scenario apps (the paper's
// escalation carriers) plus one ordinary crashy app under several aging
// configurations and reports the reboot counts. The default configuration
// must yield exactly the paper's two reboots; removing crash-loop
// throttling or decay makes reboots epidemic — which is exactly why the
// model has them (the paper observed only two reboots over ~1.5M intents
// despite thousands of crashes).
//
// Each configuration is one aging plan of all four campaigns over the three
// apps in fleet order; cfg supplies the seed, scale and observability, and
// its Campaigns, Packages, Aging and Sharding are replaced.
func RunAgingAblations(cfg farm.Config) ([]AgingAblation, error) {
	configs := []struct {
		name   string
		mutate func(*wearos.AgingConfig)
	}{
		{"default", func(*wearos.AgingConfig) {}},
		{"no-crash-throttle", func(c *wearos.AgingConfig) {
			c.RepeatCrashWeight = c.CrashWeight
			c.RepeatANRWeight = c.ANRWeight
		}},
		{"no-decay", func(c *wearos.AgingConfig) {
			c.HalfLife = 0
			// Without decay every crash accumulates forever; keep the
			// repeat throttle so the ablation isolates decay alone.
		}},
		{"fragile-core", func(c *wearos.AgingConfig) {
			// A watch whose core services matter twice as little: the
			// escalation chains no longer reach the threshold.
			c.CoreServiceWeight = c.RebootThreshold / 2
		}},
	}
	// The two escalation carriers plus one ordinary crashy app (picked from
	// the quota so it actually crash-loops under this seed).
	var targets []string
	for _, ch := range escalationChains {
		targets = append(targets, ch.Package)
	}
	for _, name := range apps.BuildWearFleet(cfg.Seed).CrashyApps() {
		if !slices.Contains(targets, name) {
			targets = append(targets, name)
			break
		}
	}
	cfg.Campaigns, cfg.Packages, cfg.Sharding = nil, targets, core.Sharding{}
	var out []AgingAblation
	for _, v := range configs {
		aging := wearos.DefaultAgingConfig()
		v.mutate(&aging)
		cfg.Aging = &aging
		res, err := RunWearStudy(cfg)
		if err != nil {
			return nil, err
		}
		out = append(out, AgingAblation{
			Name:    v.name,
			Reboots: res.Device.BootCount() - 1,
			Sent:    res.Sent,
		})
	}
	return out, nil
}

// RejuvenationStudy is the counterfactual for the paper's Section IV-E
// mitigation proposal: the same fuzzing workload with and without
// proactive software rejuvenation in the system server.
type RejuvenationStudy struct {
	BaselineReboots    int
	RejuvenatedReboots int
	Rejuvenations      int
	Sent               int
}

// RunRejuvenationStudy fuzzes the two escalation-carrying apps through
// the campaigns that trip them (A for the sensor chain, D for the ambient
// chain), once under the default aging model and once with rejuvenation
// enabled. With the paper's configuration the baseline reboots twice and
// the rejuvenated run not at all.
//
// Each chain is a one-unit aging plan on its own freshly booted watch, and
// the counts are summed over both; cfg supplies the seed, scale and
// observability, and its Campaigns, Packages, Aging and Sharding are
// replaced.
func RunRejuvenationStudy(cfg farm.Config) (RejuvenationStudy, error) {
	cfg.Sharding = core.Sharding{}
	run := func(aging wearos.AgingConfig) (reboots, rejuv, sent int, err error) {
		cfg.Aging = &aging
		for _, ch := range escalationChains {
			cfg.Campaigns, cfg.Packages = []core.Campaign{ch.Campaign}, []string{ch.Package}
			res, err := RunWearStudy(cfg)
			if err != nil {
				return 0, 0, 0, err
			}
			reboots += res.Device.BootCount() - 1
			rejuv += res.Device.SystemServer().Rejuvenations()
			sent += res.Sent
		}
		return reboots, rejuv, sent, nil
	}

	out := RejuvenationStudy{}
	var err error
	if out.BaselineReboots, _, out.Sent, err = run(wearos.DefaultAgingConfig()); err != nil {
		return out, err
	}
	if out.RejuvenatedReboots, out.Rejuvenations, _, err = run(wearos.RejuvenatedAgingConfig()); err != nil {
		return out, err
	}
	return out, nil
}
