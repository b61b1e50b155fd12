package wearos

import (
	"repro/internal/javalang"
	"repro/internal/logcat"
)

// DropBox is Android's persistent store of crash/ANR records
// (DropBoxManager). The simulated OS files an entry for every crash, ANR,
// and reboot, but keeps none: every study reads its outcomes from logcat,
// like the paper. What survives is the write path's one observable effect,
// an injected storage fault's lost write and its logged I/O error.

// DropBoxTag classifies a record, mirroring AOSP's tag strings.
type DropBoxTag string

const (
	TagAppCrash      DropBoxTag = "data_app_crash"
	TagAppANR        DropBoxTag = "data_app_anr"
	TagSystemRestart DropBoxTag = "SYSTEM_RESTART"
)

// FileDropBox files a record of process under tag through the injected-
// storage-fault check: a fault loses the write, logs the I/O error the way
// DropBoxManagerService reports a failing /data write, and is returned.
// The crash, ANR and reboot paths file here, and so do the fault engine's
// storage probes, with a probe tag.
func (o *OS) FileDropBox(tag DropBoxTag, process string) *javalang.Throwable {
	if o.storageFault != nil {
		if thr := o.storageFault(); thr != nil {
			o.storageDropped++
			o.log.Log(1000, 1000, logcat.Error, logcat.TagDropBox,
				"failed to write entry %s (%s): %s", tag, process, thr.Error())
			return thr
		}
	}
	return nil
}
