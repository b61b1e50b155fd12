// Healthfuzz: the paper's health-app storyline in one runnable scenario.
//
//  1. A Health/Fitness app reads sensors through the Google Fit facade —
//     the error-propagation dependency Section III-C hypothesizes about.
//  2. QGJ drives campaign A against the SensorManager-based health app
//     (Moto Body); the escalation of the paper's first reboot post-mortem
//     unfolds live: three ANRs -> SIGABRT of the sensor service -> device
//     reboot.
//  3. The Google Fit client observes the propagation: its reads fail with
//     a DeadObjectException root cause while the sensor service is down.
package main

import (
	"fmt"
	"log"
	"strings"

	qgj "repro"
	"repro/internal/gfit"
)

func main() {
	watch := qgj.NewWatch("moto360")
	fleet := qgj.BuildWearFleet(1)
	if err := fleet.InstallInto(watch.OS); err != nil {
		log.Fatal(err)
	}

	// A health app's Google Fit session over the shared sensor service.
	fit := gfit.NewClient("com.fitwell.demo", 4242, watch.OS.SensorService(), watch.OS.Logger())
	if thr := fit.StartSession(); thr != nil {
		log.Fatal(thr)
	}
	hr, thr := fit.ReadHeartRate()
	if thr != nil {
		log.Fatal(thr)
	}
	fmt.Printf("before fuzzing: heart rate = %.0f bpm (sensor service healthy)\n", hr)

	// Stream the log into the analyzer while campaign A runs against the
	// SensorManager health app.
	col := qgj.NewCollector()
	watch.OS.Logcat().Subscribe(col.Sink())

	fz := qgj.NewFuzzer(watch.OS, qgj.GeneratorConfig{Seed: 1})
	pkg := watch.OS.Registry().Package("com.motorola.omni")
	run := fz.FuzzApp(qgj.CampaignA, pkg)
	fmt.Printf("campaign A against %s: %d intents\n", pkg.Name, run.Sent)

	rep := col.Report()
	fmt.Printf("reboots observed: %d, core service deaths: %v\n",
		len(rep.RebootTimes), rep.CoreServiceDeaths)
	fmt.Printf("watch boot count: %d\n", watch.OS.BootCount())

	// The post-mortem, reconstructed from the log like Section IV-B does.
	for _, cn := range rep.ComponentNames() {
		cr := rep.Components[cn]
		if cr.ANRs > 0 || cr.RebootInvolved {
			fmt.Printf("  %-64s anrs=%d rebootInvolved=%v\n",
				cn.FlattenToString(), cr.ANRs, cr.RebootInvolved)
		}
	}

	// The escalation artifacts in raw logcat.
	for _, line := range strings.Split(watch.OS.Logcat().Dump(), "\n") {
		if strings.Contains(line, "SIGABRT") || strings.Contains(line, "REBOOTING") {
			fmt.Println("  logcat>", strings.TrimSpace(line))
		}
	}

	// Error propagation into Google Fit: reads fail against the fresh
	// (post-reboot) sensor service because the session died with the old
	// one — the app must handle IllegalStateException, or worse.
	if _, thr := fit.ReadHeartRate(); thr != nil {
		fmt.Printf("after reboot: Fit read fails: %v (root cause %s)\n",
			thr, thr.Root().Class)
	}
}
