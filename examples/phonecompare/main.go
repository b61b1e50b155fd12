// Phonecompare: the wear-vs-phone contrast the paper draws in Sections
// IV-A and IV-C. Runs both FIC studies at reduced scale and prints the
// crash-cause distributions side by side: on the phone
// NullPointerException leads with ClassNotFoundException second; on the
// watch, ClassNotFound nearly vanishes while IllegalState/IllegalArgument
// carry a larger share.
package main

import (
	"fmt"
	"log"
	"sort"

	qgj "repro"
	"repro/internal/javalang"
)

func main() {
	gen := qgj.QuickGen(2) // ~1/2 of full volume per axis; still minutes of virtual time

	wear, err := qgj.RunWearStudy(qgj.StudyOptions{Seed: 1, Gen: gen, Aging: qgj.PaperAging()})
	if err != nil {
		log.Fatal(err)
	}
	phone, err := qgj.RunPhoneStudy(qgj.StudyOptions{Seed: 1, Gen: gen, Aging: qgj.PaperAging()})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("wear:  %7d intents, %d reboots\n", wear.Sent, wear.Reboots())
	fmt.Printf("phone: %7d intents, %d reboots\n\n", phone.Sent, phone.Reboots())

	wearShares := crashShares(wear)
	phoneShares := crashShares(phone)

	classes := map[javalang.Class]bool{}
	for c := range wearShares {
		classes[c] = true
	}
	for c := range phoneShares {
		classes[c] = true
	}
	ordered := make([]javalang.Class, 0, len(classes))
	for c := range classes {
		ordered = append(ordered, c)
	}
	sort.Slice(ordered, func(i, j int) bool {
		return phoneShares[ordered[i]] > phoneShares[ordered[j]]
	})

	fmt.Printf("%-44s %10s %10s\n", "crash root cause", "phone", "wear")
	for _, c := range ordered {
		fmt.Printf("%-44s %9.1f%% %9.1f%%\n", c.Simple(), 100*phoneShares[c], 100*wearShares[c])
	}
}

// crashShares computes each exception class's share of crash root causes.
func crashShares(sr *qgj.StudyResult) map[javalang.Class]float64 {
	counts := sr.Combined.CrashClassTotals()
	total := 0
	for _, cc := range counts {
		total += cc.Count
	}
	out := make(map[javalang.Class]float64, len(counts))
	if total == 0 {
		return out
	}
	for _, cc := range counts {
		out[cc.Class] = float64(cc.Count) / float64(total)
	}
	return out
}
