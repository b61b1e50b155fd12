package experiments

import (
	"sort"

	"repro/internal/analysis"
	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/farm"
	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/manifest"
)

// TableIRow describes one fuzz intent campaign (Table I).
type TableIRow struct {
	Campaign       core.Campaign
	Name           string
	CountFormula   string
	PerComponent   int
	ProjectedTotal int // over the full wear fleet (912 components)
	Example        string
}

// TableI computes the campaign characteristics for the given generator
// configuration and component count.
func TableI(gen core.GeneratorConfig, components int) []TableIRow {
	formulas := map[core.Campaign]string{
		core.CampaignA: "|Action| x |TypeOf(Data)|",
		core.CampaignB: "|Action| + |TypeOf(Data)|",
		core.CampaignC: "(|Action| + |TypeOf(Data)|) x variants",
		core.CampaignD: "|Action| x variants",
	}
	examples := map[core.Campaign]string{
		core.CampaignA: "{act=ACTION_DIAL, data=http://foo.com/, cmp=some.component.name}",
		core.CampaignB: "{data=tel:123, cmp=some.component.name}",
		core.CampaignC: "{act=ACTION_DIAL, cmp=some.component.name}",
		core.CampaignD: "{act=ACTION_DIAL, data=tel:123, cmp=some.component.name (has extras)}",
	}
	rows := make([]TableIRow, 0, len(core.AllCampaigns))
	for _, c := range core.AllCampaigns {
		per := c.CountPerComponent(gen)
		rows = append(rows, TableIRow{
			Campaign:       c,
			Name:           c.Name(),
			CountFormula:   formulas[c],
			PerComponent:   per,
			ProjectedTotal: per * components,
			Example:        examples[c],
		})
	}
	return rows
}

// TableIIRow is one population row of Table II.
type TableIIRow struct {
	Category   manifest.AppCategory
	Origin     manifest.Origin
	Apps       int
	Activities int
	Services   int
}

// TableII summarizes the fleet populations.
func TableII(fleet *apps.Fleet) []TableIIRow {
	blocks := []struct {
		cat manifest.AppCategory
		org manifest.Origin
	}{
		{manifest.HealthFitness, manifest.BuiltIn},
		{manifest.HealthFitness, manifest.ThirdParty},
		{manifest.NotHealthFitness, manifest.BuiltIn},
		{manifest.NotHealthFitness, manifest.ThirdParty},
	}
	rows := make([]TableIIRow, 0, len(blocks))
	for _, b := range blocks {
		s := fleet.Stats(b.cat, b.org)
		if s.Apps == 0 {
			continue
		}
		rows = append(rows, TableIIRow{
			Category: b.cat, Origin: b.org,
			Apps: s.Apps, Activities: s.Activities, Services: s.Services,
		})
	}
	return rows
}

// TableIIICell is the per-campaign, per-category manifestation share.
type TableIIICell struct {
	Reboot, Crash, Hang, NoEffect float64
}

// TableIIIRow is one campaign's row: Health and Not-Health cells.
type TableIIIRow struct {
	Campaign  core.Campaign
	Health    TableIIICell
	NotHealth TableIIICell
}

// TableIII computes the distribution of behaviours among campaigns,
// app-level, most severe manifestation (Section IV-B).
func TableIII(res *farm.Result) []TableIIIRow {
	category := make(map[string]manifest.AppCategory, len(res.Fleet.Packages))
	for _, p := range res.Fleet.Packages {
		category[p.Name] = p.Category
	}
	rows := make([]TableIIIRow, 0, len(res.Campaigns))
	for _, c := range res.Campaigns {
		apps := c.Report.AppManifestations()
		// Apps that were fuzzed but show nothing in the logs still count as
		// no-effect; ensure every fleet package is represented.
		counts := map[manifest.AppCategory]map[analysis.Manifestation]int{
			manifest.HealthFitness:    {},
			manifest.NotHealthFitness: {},
		}
		totals := map[manifest.AppCategory]int{}
		for _, p := range res.Fleet.Packages {
			m, ok := apps[p.Name]
			if !ok {
				m = analysis.ManifestNoEffect
			}
			counts[p.Category][m]++
			totals[p.Category]++
		}
		cell := func(cat manifest.AppCategory) TableIIICell {
			t := float64(totals[cat])
			if t == 0 {
				return TableIIICell{}
			}
			mm := counts[cat]
			return TableIIICell{
				Reboot:   float64(mm[analysis.ManifestReboot]) / t,
				Crash:    float64(mm[analysis.ManifestCrash]) / t,
				Hang:     float64(mm[analysis.ManifestUnresponsive]) / t,
				NoEffect: float64(mm[analysis.ManifestNoEffect]) / t,
			}
		}
		rows = append(rows, TableIIIRow{
			Campaign:  c.Campaign,
			Health:    cell(manifest.HealthFitness),
			NotHealth: cell(manifest.NotHealthFitness),
		})
	}
	return rows
}

// TableIVRow is one exception class row of the phone crash table.
type TableIVRow struct {
	Class   javalang.Class
	Crashes int
	Share   float64
}

// TableIV computes the phone crash distribution by exception type; classes
// with fewer than 5 crashes are folded into "Others" like the paper.
func TableIV(res *farm.Result) (rows []TableIVRow, others TableIVRow, total int) {
	counts := res.Combined.CrashClassTotals()
	for _, cc := range counts {
		total += cc.Count
	}
	if total == 0 {
		return nil, TableIVRow{Class: "Others"}, 0
	}
	for _, cc := range counts {
		if cc.Count < 5 {
			others.Crashes += cc.Count
			continue
		}
		rows = append(rows, TableIVRow{
			Class: cc.Class, Crashes: cc.Count,
			Share: float64(cc.Count) / float64(total),
		})
	}
	others.Class = "Others"
	others.Share = float64(others.Crashes) / float64(total)
	return rows, others, total
}

// Fig2Series is the uncaught-exception distribution grouped by component
// type, excluding SecurityException (the paper plots it without security,
// noting security's 81.3% share separately).
type Fig2Series struct {
	SecurityShare float64
	ByType        map[string][]analysis.ClassCount
}

// Fig2 computes the exception-type distribution.
func Fig2(res *farm.Result) Fig2Series {
	return Fig2Series{
		SecurityShare: res.Combined.SecurityShare(),
		ByType:        res.Combined.UncaughtByComponentType(false),
	}
}

// Fig3a computes the component-level manifestation distribution.
func Fig3a(res *farm.Result) map[analysis.Manifestation]int {
	return res.Combined.ManifestationCounts()
}

// Fig3b computes the blamed-exception distribution per manifestation.
func Fig3b(res *farm.Result) map[analysis.Manifestation][]analysis.BlameShare {
	return res.Combined.ManifestationBlame()
}

// Fig4Series groups crash-causing exceptions by app classification.
type Fig4Series struct {
	// CrashAppRate is the fraction of apps in each origin class whose most
	// severe manifestation reached crash (the paper: built-in 64%,
	// third-party 46%).
	CrashAppRate map[manifest.Origin]float64
	// ClassCounts are the crash root-cause classes per origin.
	ClassCounts map[manifest.Origin][]analysis.ClassCount
}

// Fig4 computes the built-in vs third-party crash comparison.
func Fig4(res *farm.Result) Fig4Series {
	origin := make(map[string]manifest.Origin, len(res.Fleet.Packages))
	totals := map[manifest.Origin]int{}
	for _, p := range res.Fleet.Packages {
		origin[p.Name] = p.Origin
		totals[p.Origin]++
	}
	crashed := map[manifest.Origin]int{}
	for _, pkg := range res.Combined.AppsWithCrash() {
		crashed[origin[pkg]]++
	}
	rates := make(map[manifest.Origin]float64, 2)
	for o, t := range totals {
		if t > 0 {
			rates[o] = float64(crashed[o]) / float64(t)
		}
	}
	classes := map[manifest.Origin]map[javalang.Class]int{}
	for pkg, roots := range res.Combined.CrashRootsByPackage() {
		o := origin[pkg]
		m, ok := classes[o]
		if !ok {
			m = make(map[javalang.Class]int)
			classes[o] = m
		}
		// Count once per (component-class) pair is already folded into
		// roots; fold to per-package class presence for the figure.
		for c := range roots {
			m[c]++
		}
	}
	cc := make(map[manifest.Origin][]analysis.ClassCount, len(classes))
	for o, m := range classes {
		pairs := make([]analysis.ClassCount, 0, len(m))
		for c, n := range m {
			pairs = append(pairs, analysis.ClassCount{Class: c, Count: n})
		}
		sort.Slice(pairs, func(i, j int) bool {
			if pairs[i].Count != pairs[j].Count {
				return pairs[i].Count > pairs[j].Count
			}
			return pairs[i].Class < pairs[j].Class
		})
		cc[o] = pairs
	}
	return Fig4Series{CrashAppRate: rates, ClassCounts: cc}
}

// RebootComponents lists components involved in reboots (Fig. 3a's "4 of
// the components").
func RebootComponents(res *farm.Result) []intent.ComponentName {
	var out []intent.ComponentName
	for _, cn := range res.Combined.ComponentNames() {
		if res.Combined.Components[cn].RebootInvolved {
			out = append(out, cn)
		}
	}
	return out
}
