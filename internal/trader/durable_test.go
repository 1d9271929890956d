package trader

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"testing"
	"time"

	"cosm/internal/journal"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// newDurableTrader opens (or re-opens) a journalled trader over dir the
// way the daemon boots.
func newDurableTrader(t *testing.T, id, dir string, opts journal.Options, topts ...Option) (*Trader, *journal.Journal) {
	t.Helper()
	tr := New(id, typemgr.NewRepo(), topts...)
	j, err := journal.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Recover(tr); err != nil {
		t.Fatal(err)
	}
	return tr, j
}

// offersJSON renders offers in their canonical record form, as cosmcli
// dump does; byte equality of two renderings is the recovery acceptance
// criterion.
func offersJSON(t *testing.T, offers []*Offer) []byte {
	t.Helper()
	recs := make([]OfferRecord, len(offers))
	for i, o := range offers {
		recs[i] = o.Record()
	}
	b, err := json.Marshal(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestDurableCrashRecoveryEquivalence drives a journalled trader
// through the full mutation surface, abandons it without any shutdown
// (the in-process stand-in for kill -9; fsync=always makes every append
// durable), recovers a fresh trader from the same directory, and
// requires byte-identical import results.
func TestDurableCrashRecoveryEquivalence(t *testing.T) {
	dir := t.TempDir()
	ctx := context.Background()
	tr1, _ := newDurableTrader(t, "T", dir, journal.Options{Fsync: journal.FsyncAlways})

	if err := tr1.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 8; i++ {
		id, err := tr1.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", float64(50+i), "USD"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	leased, err := tr1.ExportLease("CarRentalService", carRef(50), carProps("AUDI", 120, "DEM"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	batch, err := tr1.ExportAll([]ExportItem{
		{Type: "CarRentalService", Ref: carRef(60), Props: carProps("VW_Golf", 66, "USD")},
		{Type: "CarRentalService", Ref: carRef(61), Props: carProps("VW_Golf", 77, "USD"), TTL: time.Hour},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := tr1.Withdraw(ids[0]); err != nil {
		t.Fatal(err)
	}
	if n, err := tr1.WithdrawAll([]string{ids[1], "T/o999"}); n != 1 || err != nil {
		t.Fatalf("WithdrawAll = %d, %v", n, err)
	}
	if err := tr1.Replace(ids[2], carProps("AUDI", 200, "GBP")); err != nil {
		t.Fatal(err)
	}
	if err := tr1.MarkSuspect(ids[3], true); err != nil {
		t.Fatal(err)
	}
	_ = leased

	req := ImportRequest{Type: "CarRentalService"}
	before, err := tr1.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}

	// Crash: no Close, no Sync — tr1 and its journal are simply
	// abandoned, as a killed process would leave them.
	tr2, j2 := newDurableTrader(t, "T", dir, journal.Options{Fsync: journal.FsyncAlways})
	defer j2.Close()

	after, err := tr2.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := offersJSON(t, after), offersJSON(t, before); !bytes.Equal(got, want) {
		t.Fatalf("recovered import differs:\n got %s\nwant %s", got, want)
	}

	// Constrained import must also survive byte-identically.
	creq := ImportRequest{Type: "CarRentalService", Constraint: "ChargePerDay > 60 && ChargeCurrency == USD"}
	cb, err := tr1.Import(ctx, creq)
	if err != nil {
		t.Fatal(err)
	}
	ca, err := tr2.Import(ctx, creq)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offersJSON(t, ca), offersJSON(t, cb)) {
		t.Fatalf("constrained import differs after recovery")
	}

	// The recovered ID counter must continue past every recovered
	// offer: a fresh export may not collide.
	newID, err := tr2.Export("CarRentalService", carRef(70), carProps("AUDI", 90, "USD"))
	if err != nil {
		t.Fatal(err)
	}
	for _, old := range append(append([]string{}, ids...), batch...) {
		if newID == old {
			t.Fatalf("post-recovery export reused ID %q", newID)
		}
	}
}

// TestDurableRecoveryAfterCompaction folds part of the history into a
// snapshot, keeps mutating, crashes, and checks the snapshot+tail
// replay reproduces the live state.
func TestDurableRecoveryAfterCompaction(t *testing.T) {
	dir := t.TempDir()
	opts := journal.Options{Fsync: journal.FsyncAlways, SegmentSize: 256}
	tr1, j1 := newDurableTrader(t, "T", dir, opts)
	if err := tr1.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := tr1.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", float64(40+i), "USD"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := j1.Compact(); err != nil {
		t.Fatal(err)
	}
	// Post-snapshot tail: these exist only as log records.
	if err := tr1.Withdraw(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := tr1.MarkSuspect(ids[2], true); err != nil {
		t.Fatal(err)
	}
	if _, err := tr1.Export("CarRentalService", carRef(90), carProps("AUDI", 140, "DEM")); err != nil {
		t.Fatal(err)
	}

	before := offersJSON(t, tr1.Offers())

	tr2, j2 := newDurableTrader(t, "T", dir, opts)
	defer j2.Close()
	if got := offersJSON(t, tr2.Offers()); !bytes.Equal(got, before) {
		t.Fatalf("recovered offers differ:\n got %s\nwant %s", got, before)
	}
}

// TestDurablePurgeReplay checks lease purges replay deterministically:
// the purge record carries its absolute instant, so recovery reclaims
// exactly the offers the live trader did — no more, regardless of the
// clock at recovery time.
func TestDurablePurgeReplay(t *testing.T) {
	dir := t.TempDir()
	now := time.Unix(1_000_000, 0)
	clock := func() time.Time { return now }
	tr1, _ := newDurableTrader(t, "T", dir, journal.Options{Fsync: journal.FsyncAlways}, withClock(clock))
	if err := tr1.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	short, err := tr1.ExportLease("CarRentalService", carRef(1), carProps("FIAT_Uno", 50, "USD"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	long, err := tr1.ExportLease("CarRentalService", carRef(2), carProps("AUDI", 120, "DEM"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	now = now.Add(2 * time.Minute)
	if n := tr1.PurgeExpired(); n != 1 {
		t.Fatalf("PurgeExpired = %d", n)
	}

	tr2, j2 := newDurableTrader(t, "T", dir, journal.Options{Fsync: journal.FsyncAlways}, withClock(clock))
	defer j2.Close()
	if _, ok := tr2.core.Lookup(short); ok {
		t.Fatalf("purged offer %q resurrected by recovery", short)
	}
	if _, ok := tr2.core.Lookup(long); !ok {
		t.Fatalf("live offer %q lost in recovery", long)
	}
}

// TestDurableTypeLifecycle journals type definition and removal through
// two crash/recover cycles.
func TestDurableTypeLifecycle(t *testing.T) {
	dir := t.TempDir()
	opts := journal.Options{Fsync: journal.FsyncAlways}

	tr1, _ := newDurableTrader(t, "T", dir, opts)
	if err := tr1.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}

	tr2, j2 := newDurableTrader(t, "T", dir, opts)
	if _, err := tr2.Types().Lookup("CarRentalService"); err != nil {
		t.Fatalf("type lost in recovery: %v", err)
	}
	if err := tr2.RemoveType("CarRentalService"); err != nil {
		t.Fatal(err)
	}
	j2.Close()

	tr3, j3 := newDurableTrader(t, "T", dir, opts)
	defer j3.Close()
	if _, err := tr3.Types().Lookup("CarRentalService"); err == nil {
		t.Fatal("removed type resurrected by recovery")
	}
}

// TestUnjournalledTraderUnaffected pins the default: with no journal
// attached, mutations commit straight to the store.
func TestUnjournalledTraderUnaffected(t *testing.T) {
	tr := New("T", newCarRepo(t))
	if tr.journal != nil {
		t.Fatal("fresh trader reports a journal")
	}
	id, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id); err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id); err == nil {
		t.Fatal("second withdraw should fail")
	}
}

// TestWithdrawAllFailsWhenTheJournalRefuses: a batch withdrawal whose
// record the journal cannot write fails like Withdraw and leaves every
// offer in place, so memory, log and followers keep agreeing.
func TestWithdrawAllFailsWhenTheJournalRefuses(t *testing.T) {
	inj := journal.NewFaultInjector()
	tr, _ := newDurableTrader(t, "T", t.TempDir(), journal.Options{Fsync: journal.FsyncNever, FaultHook: inj.Hook()})
	if err := tr.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 3; i++ {
		id, err := tr.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", float64(50+i), "USD"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	inj.FailFrom(journal.FaultWrite, inj.Count(journal.FaultWrite)+1, errors.New("disk full"))
	if n, err := tr.WithdrawAll(ids); err == nil || n != 0 {
		t.Fatalf("WithdrawAll = %d, %v; want 0 and the journal's error", n, err)
	}
	if n := tr.OfferCount(); n != len(ids) {
		t.Fatalf("OfferCount = %d after a refused WithdrawAll, want %d", n, len(ids))
	}
}

// TestJournalledWriteAllocs pins what one journalled Export and one
// Withdraw of the offer allocate together, the record's encoding and
// framing included (FsyncNever: the append is one write). A record
// encoded into a fresh buffer, or a frame built per append, shows here
// first; lower the pin when the count falls, raise it only on purpose.
func TestJournalledWriteAllocs(t *testing.T) {
	tr, j := newDurableTrader(t, "A", t.TempDir(), journal.Options{Fsync: journal.FsyncNever})
	defer j.Close()
	if err := tr.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	props := carProps("FIAT_Uno", 50, "USD")
	target := carRef(1)
	write := func() {
		id, err := tr.Export("CarRentalService", target, props)
		if err != nil {
			t.Fatal(err)
		}
		if err := tr.Withdraw(id); err != nil {
			t.Fatal(err)
		}
	}
	write()           // the first write sizes the buffers
	const pinned = 18 // 20 while each type bucket kept its own offer map; 26 with the log lines' arguments built for no logger; 28 with a strconv.Format* string per number; 29 while Record() sorted a name slice; 33 when each record was JSON in fresh buffers
	if got := testing.AllocsPerRun(100, write); got != pinned {
		t.Fatalf("one journalled Export and Withdraw allocate %v times, pinned at %d", got, pinned)
	}
}
