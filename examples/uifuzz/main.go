// UIFuzz: the QGJ-UI experiment on the Android Watch emulator, scaled down
// so it runs in well under a second. Monkey generates UI events and
// intents; QGJ-UI mutates them (semi-valid vs random) and replays them
// through the adb shell utilities; Table V's contrast emerges: semi-valid
// mutations reach app code and occasionally crash a launcher, random
// mutations mostly die in am/pm/input sanitization.
package main

import (
	"fmt"
	"log"

	qgj "repro"
)

func main() {
	const events = 8000

	for _, mode := range []qgj.UIMode{qgj.SemiValid, qgj.Random} {
		// A fresh emulator per mode keeps the runs independent, the
		// paper's reason for using an emulator in the first place.
		emu := qgj.NewEmulator()
		fleet := qgj.BuildEmulatorFleet(1)
		if err := fleet.InstallInto(emu); err != nil {
			log.Fatal(err)
		}

		fz := qgj.NewUIFuzzer(emu)
		out := fz.Run(mode, qgj.UIConfig{Seed: 1, Events: events})
		fmt.Printf("%-10s injected=%d exceptions=%d (%.2f%%) crashes=%d (%.3f%%)\n",
			out.Mode, out.Injected, out.ExceptionsRaised, 100*out.ExceptionRate(),
			out.Crashes, 100*out.CrashRate())

		// The adb utilities' sanitization is observable directly: the
		// paper's example random event is absorbed, and pm rejects a
		// garbage permission string.
		if mode == qgj.Random {
			sh := qgj.NewShell(emu)
			tap := sh.Run("input tap -8803.85 4668.17")
			fmt.Printf("  input tap -8803.85 4668.17  -> exit %d (clamped, no crash)\n", tap.ExitCode)
			pm := sh.Run("pm grant com.google.android.deskclock 'S0me.r@ndom.$trinG'")
			fmt.Printf("  pm grant ... S0me.r@ndom.$trinG -> %s\n", pm.Output())
		}
	}
}
