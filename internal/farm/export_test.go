package farm

import (
	"os"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/apps"
	"repro/internal/wearos"
)

// BootFresh is the status-board boot source of a fresh-boot oracle unit.
const BootFresh = "fresh-boot"

// UseFreshBoot switches every executor in the test binary onto the
// fresh-boot oracle: each unit boots a new device and builds its package's
// fleet from a template of its own, sharing nothing with the plan's templates, the hot
// device or any earlier unit. It records no boot telemetry. The returned func
// switches the oracle off again; t.Cleanup does too, so a failing test
// cannot leak it into the next one.
func UseFreshBoot(t testing.TB) (off func()) {
	freshBoot = bootFresh
	off = func() { freshBoot = nil }
	t.Cleanup(off)
	return off
}

// FailUnitBoot makes the k-th unit boot (1-based, counted across every
// executor in the test binary) fail with err; every other unit boots on
// the fresh-boot oracle. failed returns the package whose boot failed, ""
// before it has. off switches the failure off again, as t.Cleanup does.
func FailUnitBoot(t testing.TB, k int, err error) (failed func() string, off func()) {
	var (
		mu    sync.Mutex
		boots int
		pkgOf string
	)
	freshBoot = func(kind apps.FleetKind, seed uint64, pkg string) (*apps.Fleet, *wearos.OS, string, error) {
		mu.Lock()
		boots++
		fail := boots == k
		if fail {
			pkgOf = pkg
		}
		mu.Unlock()
		if fail {
			return nil, nil, "", err
		}
		return bootFresh(kind, seed, pkg)
	}
	off = func() { freshBoot = nil }
	t.Cleanup(off)
	failed = func() string {
		mu.Lock()
		defer mu.Unlock()
		return pkgOf
	}
	return failed, off
}

// bootFresh is the fresh-boot oracle's unit boot.
func bootFresh(kind apps.FleetKind, seed uint64, pkg string) (*apps.Fleet, *wearos.OS, string, error) {
	tmpl, err := apps.NewFleetTemplate(kind, seed)
	if err != nil {
		return nil, nil, "", err
	}
	fleet, err := tmpl.Instantiate(pkg)
	if err != nil {
		return nil, nil, "", err
	}
	dev := wearos.New(deviceConfig(kind))
	if _, err := fleet.InstallPackageInto(dev, pkg); err != nil {
		return nil, nil, "", err
	}
	return fleet, dev, BootFresh, nil
}

// FailJournalSync makes the k-th fsync (1-based, the header's included) of
// every checkpoint file opened from now on fail with err. The failing file
// also drops what was written since its previous fsync, as if the machine
// had died right after, so exactly the records of earlier fsyncs stay in
// the journal. dropped returns the lines the failed fsync dropped; off
// switches the failure off again, as t.Cleanup does.
func FailJournalSync(t testing.TB, k int, err error) (dropped func() []string, off func()) {
	var (
		mu   sync.Mutex
		lost []string
	)
	wrapJournalFile = func(f *os.File) journalFile {
		return &syncFailer{File: f, k: k, err: err, dropped: func(b []byte) {
			mu.Lock()
			defer mu.Unlock()
			lost = append(lost, strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")...)
		}}
	}
	off = func() { wrapJournalFile = nil }
	t.Cleanup(off)
	dropped = func() []string {
		mu.Lock()
		defer mu.Unlock()
		return append([]string(nil), lost...)
	}
	return dropped, off
}

// FailJournalWrite makes the k-th write (1-based, the header's included) of
// every checkpoint file opened from now on write only its first n bytes and
// fail with err, as a disk that fills up mid-record does. Later writes
// succeed again. off switches the failure off, as t.Cleanup does.
func FailJournalWrite(t testing.TB, k, n int, err error) (off func()) {
	wrapJournalFile = func(f *os.File) journalFile {
		return &shortWriter{File: f, k: k, n: n, err: err}
	}
	off = func() { wrapJournalFile = nil }
	t.Cleanup(off)
	return off
}

// shortWriter is FailJournalWrite's checkpoint file.
type shortWriter struct {
	*os.File
	k, n, writes int
	err          error
}

func (f *shortWriter) Write(p []byte) (int, error) {
	f.writes++
	if f.writes != f.k {
		return f.File.Write(p)
	}
	n, err := f.File.Write(p[:min(f.n, len(p))])
	if err != nil {
		return n, err
	}
	return n, f.err
}

// syncFailer is FailJournalSync's checkpoint file.
type syncFailer struct {
	*os.File
	k, syncs int
	err      error
	// pending is what was written since the last fsync.
	pending []byte
	dropped func([]byte)
}

func (f *syncFailer) Write(p []byte) (int, error) {
	f.pending = append(f.pending, p...)
	return f.File.Write(p)
}

func (f *syncFailer) Sync() error {
	f.syncs++
	if f.syncs != f.k {
		f.pending = f.pending[:0]
		return f.File.Sync()
	}
	// A failing disk is slow to say so; meanwhile the workers fill the
	// results channel and block on it.
	time.Sleep(100 * time.Millisecond)
	info, err := f.File.Stat()
	if err != nil {
		return err
	}
	if err := f.File.Truncate(info.Size() - int64(len(f.pending))); err != nil {
		return err
	}
	f.dropped(f.pending)
	return f.err
}
