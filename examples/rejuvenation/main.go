// Rejuvenation: the paper's Section IV-E mitigation proposal, live.
//
// The study's two reboots were "a manifestation of error accumulation in
// the Android watch"; the authors point at software-aging research as the
// remedy. This example runs the sensor-escalation workload twice — once on
// the stock aging model (reboots, like the Moto 360 did) and once with
// proactive rejuvenation enabled (the system restarts a wedged app before
// the watchdog shoots the sensor service) — and prints the instability
// timeline each run produced.
package main

import (
	"fmt"
	"log"

	qgj "repro"
	"repro/internal/wearos"
)

func main() {
	for _, variant := range []struct {
		name  string
		aging wearos.AgingConfig
	}{
		{"baseline (paper's device)", wearos.DefaultAgingConfig()},
		{"with rejuvenation", wearos.RejuvenatedAgingConfig()},
	} {
		// Campaign A against the SensorManager health app, the paper's
		// first escalation chain: a one-unit aging plan on a fresh watch
		// booted with the variant's aging model.
		res, err := qgj.RunWearStudy(qgj.StudyOptions{
			Seed:      1,
			Campaigns: []qgj.Campaign{qgj.CampaignA},
			Packages:  []string{"com.motorola.omni"},
			Aging:     &variant.aging,
		})
		if err != nil {
			log.Fatal(err)
		}
		dev := res.Device

		fmt.Printf("%s:\n", variant.name)
		fmt.Printf("  intents sent:   %d\n", res.Sent)
		fmt.Printf("  reboots:        %d\n", dev.BootCount()-1)
		fmt.Printf("  rejuvenations:  %d\n", dev.SystemServer().Rejuvenations())

		// The instability timeline shows the aging signature: spikes at
		// each ANR, and either a catastrophic jump (baseline: SIGABRT adds
		// 70 and the device reboots, clearing the timeline) or a defused
		// plateau (rejuvenated).
		tl := dev.SystemServer().InstabilityTimeline()
		fmt.Printf("  timeline samples since last boot: %d\n", len(tl))
		peak := 0.0
		for _, s := range tl {
			if s.Value > peak {
				peak = s.Value
			}
		}
		fmt.Printf("  peak instability since last boot: %.1f (reboot threshold %.0f)\n\n",
			peak, variant.aging.RebootThreshold)
	}
}
