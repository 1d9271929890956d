package browser

import (
	"bytes"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cosm/internal/journal"
	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// newDurableDirectory opens (or re-opens) a journalled directory over
// dir the way the daemon boots.
func newDurableDirectory(t *testing.T, dir string) (*Directory, *journal.Journal) {
	t.Helper()
	d := NewDirectory()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Recover(d); err != nil {
		t.Fatal(err)
	}
	return d, j
}

// TestDurableDirectoryCrashRecovery registers and withdraws SIDs,
// abandons the journal without shutdown, and recovers a fresh directory
// with the same registrations.
func TestDurableDirectoryCrashRecovery(t *testing.T) {
	dir := t.TempDir()
	d1, _ := newDurableDirectory(t, dir)

	car := sidl.CarRentalSID()
	if err := d1.Register(car, ref.New("tcp:10.0.0.1:7000", "CarRentalService")); err != nil {
		t.Fatal(err)
	}
	other := sidl.CarRentalSID()
	other.ServiceName = "TruckRentalService"
	if err := d1.Register(other, ref.New("tcp:10.0.0.2:7000", "TruckRentalService")); err != nil {
		t.Fatal(err)
	}
	// Re-register (upsert) at a new endpoint, then withdraw the second.
	moved := ref.New("tcp:10.0.0.9:7000", "CarRentalService")
	if err := d1.Register(car, moved); err != nil {
		t.Fatal(err)
	}
	if err := d1.Withdraw("TruckRentalService"); err != nil {
		t.Fatal(err)
	}

	// Crash: no Close, no Sync.
	d2, j2 := newDurableDirectory(t, dir)
	defer j2.Close()

	if got := d2.Names(); len(got) != 1 || got[0] != "CarRentalService" {
		t.Fatalf("recovered names = %v", got)
	}
	e, err := d2.Get("CarRentalService")
	if err != nil {
		t.Fatal(err)
	}
	if e.Ref != moved {
		t.Fatalf("recovered ref = %v, want %v", e.Ref, moved)
	}
	// The recovered SID round-trips to the same canonical text.
	want, _ := car.MarshalText()
	got, _ := e.SID.MarshalText()
	if string(got) != string(want) {
		t.Fatalf("recovered SID text differs:\n got %s\nwant %s", got, want)
	}
	// Keyword search works over re-parsed keywords.
	if hits := d2.Search("rental"); len(hits) != 1 {
		t.Fatalf("Search(rental) = %d hits", len(hits))
	}
}

// TestDurableDirectoryCompaction folds registrations into a snapshot
// and recovers from snapshot + tail.
func TestDurableDirectoryCompaction(t *testing.T) {
	dir := t.TempDir()
	d1, j1 := newDurableDirectory(t, dir)
	car := sidl.CarRentalSID()
	if err := d1.Register(car, ref.New("tcp:10.0.0.1:7000", "CarRentalService")); err != nil {
		t.Fatal(err)
	}
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	other := sidl.CarRentalSID()
	other.ServiceName = "TruckRentalService"
	if err := d1.Register(other, ref.New("tcp:10.0.0.2:7000", "TruckRentalService")); err != nil {
		t.Fatal(err)
	}

	d2, j2 := newDurableDirectory(t, dir)
	defer j2.Close()
	if got := d2.Names(); len(got) != 2 {
		t.Fatalf("recovered names = %v", got)
	}
}

// listing renders a directory's registrations, name and reference.
func listing(t *testing.T, d *Directory) string {
	t.Helper()
	var b strings.Builder
	for _, name := range d.Names() {
		e, err := d.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&b, "%s=%s\n", name, e.Ref)
	}
	return b.String()
}

// recoverDirectory rebuilds a directory from the journal directory of a
// still-running one — snapshot, then record replay — without starting a
// second journal over it.
func recoverDirectory(t *testing.T, dir string) *Directory {
	t.Helper()
	d := NewDirectory()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if snap, ok := j.Snapshot(); ok {
		if err := d.RestoreSnapshot(snap); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Replay(d.ReplayRecord); err != nil {
		t.Fatal(err)
	}
	return d
}

// TestConcurrentRegistrationsSurviveCompaction: round after round, two
// re-registrations of one name race with its withdrawal and with a
// compaction. The writes do not commute, so the directory must apply
// them in the order its journal holds them, and the snapshot must not
// miss a record its watermark covers (compaction deletes that record's
// segment): after every round, a directory recovered from the journal
// holds exactly what the live one holds.
func TestConcurrentRegistrationsSurviveCompaction(t *testing.T) {
	dir := t.TempDir()
	d, j := newDurableDirectory(t, dir)
	defer j.Close()
	clock, err := sidl.Parse(pinIDL)
	if err != nil {
		t.Fatal(err)
	}
	register := func(endpoint string) {
		if err := d.Register(clock, ref.New(endpoint, "Clock")); err != nil {
			t.Error(err)
		}
	}
	for round := 0; round < 300; round++ {
		register("tcp:10.0.0.1:7000")
		var wg sync.WaitGroup
		for _, write := range []func(){
			func() { register("tcp:10.0.0.2:7000") },
			func() { register("tcp:10.0.0.3:7000") },
			func() { _ = d.Withdraw("Clock") }, // before a re-registration, or after it
			func() {
				if err := j.Compact(); err != nil {
					t.Error(err)
				}
			},
		} {
			wg.Add(1)
			go func() {
				defer wg.Done()
				write()
			}()
		}
		wg.Wait()
		if want, got := listing(t, d), listing(t, recoverDirectory(t, dir)); got != want {
			t.Fatalf("round %d: recovered directory differs\n got %s\nwant %s", round, got, want)
		}
	}
}

// pinnedRecords is the directory journal's on-disk format, pinned: an
// encoded DirRecord_t (op, name, sidl, ref) per record, recorded from
// the live calls of TestDirectoryJournalFormatPinned, and the snapshot
// (DirSnapshot_t) the directory then compacts to.
var pinnedRecords = []string{
	"\bregister\x05Clockimodule Clock {\n    interface COSM_Operations {\n        // Tell the time.\n        string Now();\n    };\n};\n\x1bcosm://tcp:provider:7/Clock",
	"\bwithdraw\x05Clock\x00\x00",
	"\bregister\x05Clockimodule Clock {\n    interface COSM_Operations {\n        // Tell the time.\n        string Now();\n    };\n};\n\x1bcosm://tcp:provider:8/Clock",
}

const pinnedDirSnapshot = "\x01\x00\x05Clockimodule Clock {\n    interface COSM_Operations {\n        // Tell the time.\n        string Now();\n    };\n};\n\x1bcosm://tcp:provider:8/Clock"

// TestDirectoryJournalFormatPinned holds the directory's journal format
// still in both directions: the live calls must append exactly the
// pinned records and compact to the pinned snapshot, and a directory
// replaying the literal records, or restoring the literal snapshot,
// must hold what the live one holds.
func TestDirectoryJournalFormatPinned(t *testing.T) {
	dir := t.TempDir()
	live, j := newDurableDirectory(t, dir)
	defer j.Close()
	clock, err := sidl.Parse(pinIDL)
	if err != nil {
		t.Fatal(err)
	}
	replayed := NewDirectory()
	start := j.Stats().LastSeq
	for i, call := range []func() error{
		func() error { return live.Register(clock, ref.New("tcp:provider:7", "Clock")) },
		func() error { return live.Withdraw("Clock") },
		func() error { return live.Register(clock, ref.New("tcp:provider:8", "Clock")) },
	} {
		if err := call(); err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		recs, err := j.ReadFrom(start+uint64(i), 1)
		if err != nil || len(recs) != 1 {
			t.Fatalf("record %d: read back %d records, %v", i, len(recs), err)
		}
		if got := string(recs[0].Payload); got != pinnedRecords[i] {
			t.Errorf("record %d: journal format changed\n got %q\nwant %q", i, got, pinnedRecords[i])
		}
		if err := replayed.ReplayRecord(recs[0].Seq, []byte(pinnedRecords[i])); err != nil {
			t.Fatalf("record %d: replay: %v", i, err)
		}
		if want, got := listing(t, live), listing(t, replayed); got != want {
			t.Fatalf("record %d: replayed directory differs\n got %s\nwant %s", i, got, want)
		}
	}
	snap, err := live.JournalSnapshot()
	if err != nil {
		t.Fatal(err)
	}
	if string(snap) != pinnedDirSnapshot {
		t.Fatalf("snapshot format changed\n got %q\nwant %q", snap, pinnedDirSnapshot)
	}
	restored := NewDirectory()
	if err := restored.RestoreSnapshot([]byte(pinnedDirSnapshot)); err != nil {
		t.Fatal(err)
	}
	if want, got := listing(t, live), listing(t, restored); got != want {
		t.Fatalf("restored directory differs\n got %s\nwant %s", got, want)
	}
}

// The directory's journal decoders read bytes off a disk, so they must
// refuse damage with an error, never a panic, and applying the same
// bytes again must leave the state the first application left. The
// seeds are the pinned records and snapshot.

func FuzzReplayRecord(f *testing.F) {
	for _, rec := range pinnedRecords {
		f.Add([]byte(rec))
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		twiceSame(t, payload, func(d *Directory) { _ = d.ReplayRecord(1, payload) })
	})
}

func FuzzRestoreSnapshot(f *testing.F) {
	f.Add([]byte(pinnedDirSnapshot))
	f.Fuzz(func(t *testing.T, payload []byte) {
		twiceSame(t, payload, func(d *Directory) { _ = d.RestoreSnapshot(payload) })
	})
}

// twiceSame applies apply to a fresh directory twice and fails unless
// the second application left its snapshot as the first did.
func twiceSame(t *testing.T, payload []byte, apply func(*Directory)) {
	d := NewDirectory()
	apply(d)
	first, err1 := d.JournalSnapshot()
	apply(d)
	second, err2 := d.JournalSnapshot()
	if !bytes.Equal(first, second) || (err1 == nil) != (err2 == nil) {
		t.Fatalf("applying %q again moved the state:\n%q (%v)\nto\n%q (%v)", payload, first, err1, second, err2)
	}
}
