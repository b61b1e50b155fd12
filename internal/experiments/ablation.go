package experiments

import (
	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/manifest"
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

// CompareValidationEras runs the legacy and modern phone studies under the
// same seed/scale and extracts the input-validation-improvement signal.
func CompareValidationEras(cfg farm.Config) (ValidationEraComparison, error) {
	legacy, err := RunLegacyPhoneStudy(cfg)
	if err != nil {
		return ValidationEraComparison{}, err
	}
	modern, err := RunPhoneStudy(cfg)
	if err != nil {
		return ValidationEraComparison{}, err
	}
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
	return out, nil
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

// RunAgingAblations fuzzes the two reboot-scenario apps (the paper's
// escalation carriers) plus one ordinary crashy app under several aging
// configurations and reports the reboot counts. The default configuration
// must yield exactly the paper's two reboots; removing crash-loop
// throttling or decay makes reboots epidemic — which is exactly why the
// model has them (the paper observed only two reboots over ~1.5M intents
// despite thousands of crashes).
func RunAgingAblations(seed uint64, gen core.GeneratorConfig) ([]AgingAblation, error) {
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
	targets := []string{
		"com.motorola.omni",            // sensor escalation (campaign A)
		"com.google.android.deskclock", // ambient escalation (campaign D)
	}
	probe := apps.BuildWearFleet(seed)
	for _, name := range probe.CrashyApps() {
		if name != targets[0] && name != targets[1] {
			targets = append(targets, name)
			break
		}
	}
	var out []AgingAblation
	for _, cfg := range configs {
		fleet := apps.BuildWearFleet(seed)
		devCfg := wearos.DefaultWatchConfig()
		cfg.mutate(&devCfg.Aging)
		dev := wearos.New(devCfg)
		if err := fleet.InstallInto(dev); err != nil {
			return nil, err
		}
		g := gen
		g.Seed = seed
		inj := &core.Injector{Dev: dev, Cfg: g}
		sent := 0
		for _, c := range core.AllCampaigns {
			for _, pkgName := range targets {
				pkg := dev.Registry().Package(pkgName)
				run := inj.FuzzApp(c, pkg)
				sent += run.Sent
			}
		}
		out = append(out, AgingAblation{
			Name:    cfg.name,
			Reboots: dev.BootCount() - 1,
			Sent:    sent,
		})
	}
	return out, nil
}

// PacingAblation measures the effect of QGJ's empirically chosen delays
// (100 ms between intents, 250 ms per 100): with pacing, instability
// decays between failures; without it, unrelated failures pile into the
// same aging window. Returns (rebootsWithPacing, rebootsWithoutPacing).
func PacingAblation(seed uint64, gen core.GeneratorConfig) (paced, unpaced int, err error) {
	res, err := RunWearStudy(farm.Config{Seed: seed, Gen: gen, Aging: true})
	if err != nil {
		return 0, 0, err
	}
	paced = res.Device.BootCount() - 1

	// Same intent stream, but no inter-intent delays: deliver back-to-back
	// so instability never decays between failures.
	fleet := apps.BuildWearFleet(seed)
	dev := wearos.New(wearos.DefaultWatchConfig())
	if err := fleet.InstallInto(dev); err != nil {
		return 0, 0, err
	}
	g := gen
	g.Seed = seed
	for _, c := range core.AllCampaigns {
		for _, pkg := range dev.Registry().Packages() {
			for _, comp := range pkg.Components {
				kind := comp.Type
				c.Generate(comp.Name, g, core.QGJUID, func(in *intent.Intent) {
					if kind == manifest.Service {
						dev.StartService(in)
					} else {
						dev.StartActivity(in)
					}
				})
			}
		}
	}
	return paced, dev.BootCount() - 1, nil
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
func RunRejuvenationStudy(seed uint64, gen core.GeneratorConfig) (RejuvenationStudy, error) {
	run := func(aging wearos.AgingConfig) (reboots, rejuv, sent int, err error) {
		fleet := apps.BuildWearFleet(seed)
		devCfg := wearos.DefaultWatchConfig()
		devCfg.Aging = aging
		dev := wearos.New(devCfg)
		if err := fleet.InstallInto(dev); err != nil {
			return 0, 0, 0, err
		}
		g := gen
		g.Seed = seed
		inj := &core.Injector{Dev: dev, Cfg: g}
		for _, step := range []struct {
			campaign core.Campaign
			pkg      string
		}{
			{core.CampaignA, "com.motorola.omni"},
			{core.CampaignD, "com.google.android.deskclock"},
		} {
			pkg := dev.Registry().Package(step.pkg)
			r := inj.FuzzApp(step.campaign, pkg)
			sent += r.Sent
		}
		return dev.BootCount() - 1, dev.SystemServer().Rejuvenations(), sent, nil
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
