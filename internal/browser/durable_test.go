package browser

import (
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
