// Healthfuzz: the paper's health-app storyline in one runnable scenario.
//
//  1. QGJ drives campaign A against the SensorManager-based health app
//     (Moto Body); the escalation of the paper's first reboot post-mortem
//     unfolds live: three ANRs -> SIGABRT of the sensor service -> device
//     reboot.
//  2. The post-mortem is reconstructed from logcat, like Section IV-B does.
package main

import (
	"fmt"
	"log"
	"strings"

	qgj "repro"
)

func main() {
	watch := qgj.NewWatch()
	fleet := qgj.BuildWearFleet(1)
	if err := fleet.InstallInto(watch); err != nil {
		log.Fatal(err)
	}

	// Stream the log into the analyzer while campaign A runs against the
	// SensorManager health app.
	col := qgj.NewCollector()
	watch.Logcat().Subscribe(col.Sink())

	fz := qgj.NewFuzzer(watch, qgj.GeneratorConfig{Seed: 1})
	pkg := watch.Registry().Package("com.motorola.omni")
	run := fz.FuzzApp(qgj.CampaignA, pkg)
	fmt.Printf("campaign A against %s: %d intents\n", pkg.Name, run.Sent)

	rep := col.Report()
	fmt.Printf("reboots observed: %d, core service deaths: %v\n",
		len(rep.RebootTimes), rep.CoreServiceDeaths)
	fmt.Printf("watch boot count: %d\n", watch.BootCount())

	// The post-mortem, reconstructed from the log like Section IV-B does.
	for _, cn := range rep.ComponentNames() {
		cr := rep.Components[cn]
		if cr.ANRs > 0 || cr.RebootInvolved {
			fmt.Printf("  %-64s anrs=%d rebootInvolved=%v\n",
				cn.FlattenToString(), cr.ANRs, cr.RebootInvolved)
		}
	}

	// The escalation artifacts in raw logcat.
	for _, line := range strings.Split(watch.Logcat().Dump(), "\n") {
		if strings.Contains(line, "SIGABRT") || strings.Contains(line, "REBOOTING") {
			fmt.Println("  logcat>", strings.TrimSpace(line))
		}
	}

}
