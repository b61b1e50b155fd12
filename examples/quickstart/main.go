// Quickstart: fuzz one app of the paper's 46-app wearable fleet with
// campaign A on an aging watch, print QGJ's per-app summary, and read the
// outcome from logcat — the whole toolchain in ~40 lines of API.
package main

import (
	"fmt"
	"log"

	qgj "repro"
)

func main() {
	// A one-app aging plan: the study's wearable population (Table II) for
	// seed 1 installed on one watch that ages across the run, and campaign A
	// (semi-valid action/data) against Strava, scaled down so the demo
	// finishes instantly.
	res, err := qgj.RunWearStudy(qgj.StudyOptions{
		Seed:      1,
		Packages:  []string{"com.strava.wear"},
		Campaigns: []qgj.Campaign{qgj.CampaignA},
		Gen:       qgj.QuickGen(4),
		Aging:     qgj.PaperAging(),
	})
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range res.Campaigns[0].Summaries {
		fmt.Println(s)
	}

	// Ground truth comes from logcat, exactly like the paper: pull the
	// watch's log and classify manifestations per component.
	col := qgj.NewCollector()
	col.ConsumeAll(res.Device.Logcat().Snapshot())
	rep := col.Report()
	for _, cn := range rep.ComponentNames() {
		cr := rep.Components[cn]
		fmt.Printf("  %-60s %-12s (deliveries=%d, security=%d)\n",
			cn.FlattenToString(), cr.Manifestation(), cr.Deliveries, cr.Security)
	}
}
