package qgj_test

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	qgj "repro"
	"repro/internal/analysis"
	"repro/internal/core"
	"repro/internal/wearos"
)

// TestTelemetryMatchesReport is the end-to-end acceptance check for the
// observability subsystem: run a campaign with the live exposition endpoint
// up, scrape /metrics, and verify the analysis_components manifestation
// gauges agree exactly with the final analysis.Report for the same run —
// plus the presence of the intent-injection counters and the binder latency
// histogram.
func TestTelemetryMatchesReport(t *testing.T) {
	dev := wearos.New(wearos.DefaultWatchConfig())
	fleet := qgj.BuildWearFleet(7)
	if err := fleet.InstallInto(dev); err != nil {
		t.Fatal(err)
	}
	col := analysis.NewCollector().UseTelemetry(dev.Telemetry())
	dev.Logcat().Subscribe(col.Sink())

	srv, err := qgj.ServeTelemetry("127.0.0.1:0", dev.Telemetry())
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	inj := &core.Injector{Dev: dev, Cfg: benchGen}
	var sent int
	for _, pkg := range fleet.Packages[:4] {
		for _, c := range []core.Campaign{core.CampaignA, core.CampaignB} {
			sent += inj.FuzzApp(c, pkg).Sent
		}
	}
	if sent == 0 {
		t.Fatal("campaigns sent nothing")
	}

	client := &http.Client{Timeout: 5 * time.Second}
	resp, err := client.Get("http://" + srv.Addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(body)

	// The exposition carries the injection counters and the binder latency
	// histogram family.
	for _, want := range []string{
		`qgj_intents_injected_total{campaign="A"`,
		`qgj_intents_generated_total{campaign="B"`,
		"# TYPE binder_transact_seconds histogram",
		`binder_transact_seconds_bucket{le="+Inf"}`,
		"# TYPE wearos_dispatch_total counter",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// The manifestation gauges must match the final Report exactly.
	report := col.Report()
	want := map[analysis.Manifestation]int{}
	for _, cr := range report.Components {
		want[cr.Manifestation()]++
	}
	for _, m := range analysis.AllManifestations {
		got, ok := scrapeGauge(out, `analysis_components{manifestation="`+m.String()+`"}`)
		if !ok {
			t.Fatalf("exposition has no analysis_components gauge for %s:\n%s", m, out)
		}
		if got != want[m] {
			t.Errorf("analysis_components{%s} = %d, want %d (from Report)", m, got, want[m])
		}
	}

	// Total injections exposed must equal what the fuzzer reported sending.
	var injected int
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "qgj_intents_injected_total{") {
			if v, ok := sampleValue(line); ok {
				injected += v
			}
		}
	}
	if injected != sent {
		t.Errorf("qgj_intents_injected_total sums to %d, fuzzer sent %d", injected, sent)
	}
}

// TestTelemetryDoesNotPerturbSimulation pins the property the overhead
// benchmarks rely on: enabling or disabling telemetry must not change a
// single delivery outcome. The simulation is deterministic for a seed, so
// the two runs must agree exactly.
func TestTelemetryDoesNotPerturbSimulation(t *testing.T) {
	run := func(disable bool) (map[wearos.DeliveryResult]int, int) {
		cfg := wearos.DefaultWatchConfig()
		cfg.DisableTelemetry = disable
		dev := wearos.New(cfg)
		fleet := qgj.BuildWearFleet(1)
		if err := fleet.InstallInto(dev); err != nil {
			t.Fatal(err)
		}
		inj := &core.Injector{Dev: dev, Cfg: benchGen}
		ar := inj.FuzzApp(core.CampaignA, fleet.Packages[0])
		return ar.Results(), dev.BootCount()
	}
	onRes, onBoot := run(false)
	offRes, offBoot := run(true)
	if onBoot != offBoot {
		t.Errorf("boot count differs: telemetry on %d, off %d", onBoot, offBoot)
	}
	for r := wearos.DeliveredNoEffect; r <= wearos.DeviceRebooted; r++ {
		if onRes[r] != offRes[r] {
			t.Errorf("%s count differs: telemetry on %d, off %d", r, onRes[r], offRes[r])
		}
	}
}

// scrapeGauge finds the sample whose name{labels} prefix matches exactly.
func scrapeGauge(exposition, prefix string) (int, bool) {
	for _, line := range strings.Split(exposition, "\n") {
		if strings.HasPrefix(line, prefix+" ") {
			return mustAtoi(strings.TrimPrefix(line, prefix+" "))
		}
	}
	return 0, false
}

func sampleValue(line string) (int, bool) {
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		return 0, false
	}
	return mustAtoi(line[i+1:])
}

func mustAtoi(s string) (int, bool) {
	f, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
	if err != nil {
		return 0, false
	}
	return int(f), true
}
