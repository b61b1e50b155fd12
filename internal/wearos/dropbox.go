package wearos

import (
	"time"

	"repro/internal/intent"
	"repro/internal/javalang"
	"repro/internal/logcat"
)

// DropBox is Android's persistent store of crash/ANR records
// (DropBoxManager): unlike the logcat ring, it survives buffer churn and
// is what post-mortem tooling mines. The simulated OS files an entry for
// every crash, ANR, and reboot; the wearsim CLI and tests read them back.

// DropBoxTag classifies a record, mirroring AOSP's tag strings.
type DropBoxTag string

const (
	TagAppCrash      DropBoxTag = "data_app_crash"
	TagAppANR        DropBoxTag = "data_app_anr"
	TagSystemRestart DropBoxTag = "SYSTEM_RESTART"
)

// DropBoxEntry is one filed record.
type DropBoxEntry struct {
	Time      time.Time
	Tag       DropBoxTag
	Process   string
	Component intent.ComponentName
	// ExceptionClass is set for crashes (the root cause) and exception-
	// bearing ANRs.
	ExceptionClass javalang.Class
	// Detail carries the headline line of the record.
	Detail string
}

// dropBox is the bounded store; oldest entries are evicted like the real
// DropBoxManager's quota behaviour.
type dropBox struct {
	entries []DropBoxEntry
	limit   int
}

const defaultDropBoxLimit = 4096

func newDropBox() *dropBox {
	return &dropBox{limit: defaultDropBoxLimit}
}

func (d *dropBox) add(e DropBoxEntry) {
	d.entries = append(d.entries, e)
	if len(d.entries) > d.limit {
		d.entries = d.entries[len(d.entries)-d.limit:]
	}
}

// persistDropBox writes an entry through the injected-storage-fault check:
// a fault drops the record (the bounded store never sees it) and logs the
// I/O error the way DropBoxManagerService reports a failing /data write.
func (o *OS) persistDropBox(e DropBoxEntry) *javalang.Throwable {
	if o.storageFault != nil {
		if thr := o.storageFault(); thr != nil {
			o.storageDropped++
			o.log.Log(1000, 1000, logcat.Error, logcat.TagDropBox,
				"failed to write entry %s (%s): %s", e.Tag, e.Process, thr.Error())
			return thr
		}
	}
	o.dropbox.add(e)
	return nil
}

// DropBoxEntries returns the filed records, optionally filtered by tag
// (empty tag = all). The slice is a copy.
func (o *OS) DropBoxEntries(tag DropBoxTag) []DropBoxEntry {
	var out []DropBoxEntry
	for _, e := range o.dropbox.entries {
		if tag == "" || e.Tag == tag {
			out = append(out, e)
		}
	}
	return out
}
