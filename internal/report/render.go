// Package report renders the reproduced tables and figures as text, in the
// same structure the paper presents them. cmd/report and EXPERIMENTS.md are
// generated through these renderers.
package report

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/analysis"
	"repro/internal/experiments"
	"repro/internal/manifest"
)

// table is a minimal text-table builder.
type table struct {
	header []string
	rows   [][]string
}

func (t *table) add(cells ...string) { t.rows = append(t.rows, cells) }

func (t *table) String() string {
	widths := make([]int, len(t.header))
	for i, h := range t.header {
		widths[i] = len(h)
	}
	for _, r := range t.rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			sb.WriteString(c)
			sb.WriteString(strings.Repeat(" ", widths[i]-len(c)))
		}
		sb.WriteByte('\n')
	}
	writeRow(t.header)
	total := len(widths)*2 - 2
	for _, w := range widths {
		total += w
	}
	sb.WriteString(strings.Repeat("-", total))
	sb.WriteByte('\n')
	for _, r := range t.rows {
		writeRow(r)
	}
	return sb.String()
}

func pct(f float64) string  { return fmt.Sprintf("%.1f%%", 100*f) }
func pct0(f float64) string { return fmt.Sprintf("%.0f%%", 100*f) }

// TableI renders the fuzz intent campaign definitions.
func TableI(rows []experiments.TableIRow) string {
	t := &table{header: []string{"Campaign", "Formula", "Per Component", "Projected Total", "Example"}}
	for _, r := range rows {
		t.add(r.Name, r.CountFormula,
			fmt.Sprintf("%d", r.PerComponent),
			fmt.Sprintf("%d", r.ProjectedTotal),
			r.Example)
	}
	return "TABLE I: FUZZ INTENT CAMPAIGNS\n" + t.String()
}

// TableII renders the application population statistics.
func TableII(rows []experiments.TableIIRow) string {
	t := &table{header: []string{"Category", "Classification", "#", "# Activities", "# Services"}}
	var apps, acts, svcs int
	for _, r := range rows {
		t.add(r.Category.String(), r.Origin.String(),
			fmt.Sprintf("%d", r.Apps), fmt.Sprintf("%d", r.Activities), fmt.Sprintf("%d", r.Services))
		apps += r.Apps
		acts += r.Activities
		svcs += r.Services
	}
	t.add("Total", "", fmt.Sprintf("%d", apps), fmt.Sprintf("%d", acts), fmt.Sprintf("%d", svcs))
	return "TABLE II: APPLICATION STATS\n" + t.String()
}

// TableIII renders the per-campaign behaviour distribution.
func TableIII(rows []experiments.TableIIIRow) string {
	t := &table{header: []string{
		"Campaign",
		"Reboot H", "Reboot NH",
		"Crash H", "Crash NH",
		"Hang H", "Hang NH",
		"NoEffect H", "NoEffect NH",
	}}
	for _, r := range rows {
		t.add(r.Campaign.Name(),
			pct0(r.Health.Reboot), pct0(r.NotHealth.Reboot),
			pct0(r.Health.Crash), pct0(r.NotHealth.Crash),
			pct0(r.Health.Hang), pct0(r.NotHealth.Hang),
			pct0(r.Health.NoEffect), pct0(r.NotHealth.NoEffect))
	}
	return "TABLE III: DISTRIBUTION OF BEHAVIORS AMONG FUZZ INTENT CAMPAIGNS\n" +
		"(H = Health/Fitness, NH = Not Health/Fitness; app-level, most severe)\n" + t.String()
}

// TableIV renders the phone crash distribution.
func TableIV(rows []experiments.TableIVRow, others experiments.TableIVRow, total int) string {
	t := &table{header: []string{"Exception", "#Crashes", "%"}}
	for _, r := range rows {
		t.add(string(r.Class), fmt.Sprintf("%d", r.Crashes), pct(r.Share))
	}
	t.add("Others", fmt.Sprintf("%d", others.Crashes), pct(others.Share))
	t.add("Total", fmt.Sprintf("%d", total), "100.0%")
	return "TABLE IV: DISTRIBUTION OF CRASHES ON ANDROID PHONE PER EXCEPTION TYPE\n" + t.String()
}

// TableV renders the QGJ-UI results.
func TableV(rows []experiments.TableVRow) string {
	t := &table{header: []string{"Experiment", "#Injected Events", "Exceptions Raised", "Crashes"}}
	for _, r := range rows {
		t.add(r.Experiment,
			fmt.Sprintf("%d", r.InjectedEvents),
			fmt.Sprintf("%d (%.1f%%)", r.Exceptions, 100*r.ExceptionRate),
			fmt.Sprintf("%d (%.2f%%)", r.Crashes, 100*r.CrashRate))
	}
	return "TABLE V: DISTRIBUTION OF EXCEPTIONS AND CRASHES DURING QGJ-UI EXPERIMENTS\n" + t.String()
}

// bar renders a proportional ASCII bar.
func bar(share float64, width int) string {
	n := int(share*float64(width) + 0.5)
	if n > width {
		n = width
	}
	return strings.Repeat("#", n)
}

// Fig2 renders the uncaught-exception distribution grouped by component
// type.
func Fig2(s experiments.Fig2Series) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "FIG 2: DISTRIBUTION OF UNCAUGHT EXCEPTION TYPES BY COMPONENT TYPE\n")
	fmt.Fprintf(&sb, "(SecurityException excluded from bars; it accounts for %.1f%% of all exceptions)\n\n",
		100*s.SecurityShare)
	types := make([]string, 0, len(s.ByType))
	for ty := range s.ByType {
		types = append(types, ty)
	}
	sort.Strings(types)
	for _, ty := range types {
		counts := s.ByType[ty]
		total := 0
		for _, cc := range counts {
			total += cc.Count
		}
		if total == 0 {
			continue
		}
		fmt.Fprintf(&sb, "%s components (%d exception-component pairs):\n", ty, total)
		for _, cc := range counts {
			share := 0.0
			if total > 0 {
				share = float64(cc.Count) / float64(total)
			}
			fmt.Fprintf(&sb, "  %-52s %4d  %-25s %s\n",
				cc.Class.Simple(), cc.Count, bar(share, 25), pct(share))
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// Fig3a renders the manifestation distribution over components.
func Fig3a(counts map[analysis.Manifestation]int) string {
	total := 0
	for _, n := range counts {
		total += n
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "FIG 3a: DISTRIBUTION OF ERROR MANIFESTATIONS OVER %d COMPONENTS\n", total)
	for _, m := range []analysis.Manifestation{
		analysis.ManifestNoEffect, analysis.ManifestUnresponsive,
		analysis.ManifestCrash, analysis.ManifestReboot,
	} {
		n := counts[m]
		share := 0.0
		if total > 0 {
			share = float64(n) / float64(total)
		}
		fmt.Fprintf(&sb, "  (%d) %-14s %4d  %-30s %s\n",
			int(m), m.String(), n, bar(share, 30), pct(share))
	}
	return sb.String()
}

// Fig3b renders the blamed-exception distribution per manifestation.
func Fig3b(blame map[analysis.Manifestation][]analysis.BlameShare,
	counts map[analysis.Manifestation]int) string {
	var sb strings.Builder
	sb.WriteString("FIG 3b: DISTRIBUTION OF EXCEPTIONS BY MANIFESTATION\n")
	for _, m := range []analysis.Manifestation{
		analysis.ManifestNoEffect, analysis.ManifestUnresponsive,
		analysis.ManifestCrash, analysis.ManifestReboot,
	} {
		shares, ok := blame[m]
		if !ok {
			continue
		}
		fmt.Fprintf(&sb, "\n%s (%d components):\n", m.String(), counts[m])
		for _, s := range shares {
			name := s.Class.Simple()
			if s.Class == analysis.NoExceptionClass {
				name = "(no exception)"
			}
			fmt.Fprintf(&sb, "  %-52s %-25s %s\n", name, bar(s.Share, 25), pct(s.Share))
		}
	}
	return sb.String()
}

// Fig4 renders the crash comparison by app classification.
func Fig4(s experiments.Fig4Series) string {
	var sb strings.Builder
	sb.WriteString("FIG 4: CRASH-CAUSING EXCEPTIONS BY APP CLASSIFICATION\n")
	for _, origin := range []manifest.Origin{manifest.BuiltIn, manifest.ThirdParty} {
		fmt.Fprintf(&sb, "\n%s apps — %s reported crashes:\n",
			origin.String(), pct0(s.CrashAppRate[origin]))
		for _, cc := range s.ClassCounts[origin] {
			fmt.Fprintf(&sb, "  %-52s %d app(s)\n", cc.Class.Simple(), cc.Count)
		}
	}
	return sb.String()
}
