package trader

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosm/internal/journal"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// syncUp pulls from leader into follower until the follower has
// applied the leader's whole log.
func syncUp(t *testing.T, leader, follower *Trader, id string) {
	t.Helper()
	for {
		b, err := leader.PullBatch(context.Background(), id, follower.Epoch(), follower.ReplApplied(), 512, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := follower.ApplyBatch(b); err != nil {
			t.Fatal(err)
		}
		if follower.ReplApplied() >= b.LastSeq {
			return
		}
	}
}

// TestReplicationEquivalence replicates a full mutation history from a
// journalled leader to a journalled follower via the pull protocol and
// requires byte-identical import results — then restarts the follower
// from its own journal and requires the same again (replication is
// WAL-first on the follower too).
func TestReplicationEquivalence(t *testing.T) {
	ctx := context.Background()
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()

	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 0; i < 6; i++ {
		id, err := leader.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", float64(50+i), "USD"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	if err := leader.Withdraw(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := leader.Replace(ids[1], carProps("AUDI", 200, "GBP")); err != nil {
		t.Fatal(err)
	}
	if err := leader.MarkSuspect(ids[2], true); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	follower, fj := newDurableTrader(t, "L", fdir, journal.Options{Fsync: journal.FsyncAlways})
	follower.SetFollower("cosm://leader")
	syncUp(t, leader, follower, "f1")

	req := ImportRequest{Type: "CarRentalService"}
	want, err := leader.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	got, err := follower.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offersJSON(t, got), offersJSON(t, want)) {
		t.Fatalf("follower import differs:\n got %s\nwant %s", offersJSON(t, got), offersJSON(t, want))
	}

	// Restart the follower from its own journal (simulated crash).
	fj.Close()
	follower2, fj2 := newDurableTrader(t, "L", fdir, journal.Options{Fsync: journal.FsyncAlways})
	defer fj2.Close()
	got2, err := follower2.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(offersJSON(t, got2), offersJSON(t, want)) {
		t.Fatalf("recovered follower import differs:\n got %s\nwant %s", offersJSON(t, got2), offersJSON(t, want))
	}
	if follower2.ReplApplied() != follower.ReplApplied() {
		t.Fatalf("recovered pull position %d, want %d", follower2.ReplApplied(), follower.ReplApplied())
	}
}

// TestReplSnapshotCatchUp compacts the leader's journal so a fresh
// follower is behind the watermark: its first pull must ship a full
// snapshot, and subsequent pulls resume with records.
func TestReplSnapshotCatchUp(t *testing.T) {
	ctx := context.Background()
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()

	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := leader.Export("CarRentalService", carRef(i), carProps("VW_Golf", float64(40+i), "USD")); err != nil {
			t.Fatal(err)
		}
	}
	if err := lj.Compact(); err != nil {
		t.Fatal(err)
	}

	follower, fj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer fj.Close()
	follower.SetFollower("cosm://leader")

	b, err := leader.PullBatch(ctx, "f1", 0, 0, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Snapshot == nil {
		t.Fatal("expected a snapshot batch for a follower behind the watermark")
	}
	if _, err := follower.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	syncUp(t, leader, follower, "f1")

	// Post-snapshot records still flow.
	if _, err := leader.Export("CarRentalService", carRef(99), carProps("AUDI", 150, "DEM")); err != nil {
		t.Fatal(err)
	}
	syncUp(t, leader, follower, "f1")

	req := ImportRequest{Type: "CarRentalService"}
	want, _ := leader.Import(ctx, req)
	got, _ := follower.Import(ctx, req)
	if !bytes.Equal(offersJSON(t, got), offersJSON(t, want)) {
		t.Fatalf("follower import differs after snapshot catch-up")
	}
	if n := follower.OfferCount(); n != 11 {
		t.Fatalf("follower offers = %d, want 11", n)
	}
}

// TestFollowerRejectsMutations: a follower serves imports locally but
// refuses every mutation with ErrNotLeader carrying the leader hint.
func TestFollowerRejectsMutations(t *testing.T) {
	tr := New("T", typemgr.NewRepo())
	if err := tr.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	tr.SetFollower("cosm://10.0.0.1:7001/svc")

	_, err := tr.Export("CarRentalService", carRef(1), carProps("AUDI", 100, "USD"))
	if !errors.Is(err, ErrNotLeader) {
		t.Fatalf("Export on follower: %v, want ErrNotLeader", err)
	}
	if !strings.Contains(err.Error(), "leader at cosm://10.0.0.1:7001/svc") {
		t.Fatalf("error %q lacks leader hint", err)
	}
	if err := tr.Withdraw("T/o1"); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("Withdraw on follower: %v", err)
	}
	if err := tr.DefineTypeSIDL(sidl.CarRentalIDL); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("DefineTypeSIDL on follower: %v", err)
	}
	if _, err := tr.Import(context.Background(), ImportRequest{Type: "CarRentalService"}); err != nil {
		t.Fatalf("Import on follower must work locally: %v", err)
	}
	if got := tr.Role(); got != RoleFollower {
		t.Fatalf("Role = %q", got)
	}
}

// TestPromotionAndFencing: promoting a follower raises the epoch and
// re-enables mutations; a stale promotion is rejected; the deposed
// leader self-demotes when it sees the higher epoch, and batches from
// it are fenced on the follower side.
func TestPromotionAndFencing(t *testing.T) {
	ctx := context.Background()
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}

	fdir := t.TempDir()
	follower, fj := newDurableTrader(t, "L", fdir, journal.Options{Fsync: journal.FsyncAlways})
	defer fj.Close()
	follower.SetFollower("cosm://leader")
	syncUp(t, leader, follower, "f1")

	// Stale promotion (epoch not past current) is rejected.
	if err := follower.Promote(0); err == nil {
		t.Fatal("Promote(0) succeeded, want stale-epoch rejection")
	}
	if err := follower.Promote(1); err != nil {
		t.Fatal(err)
	}
	if follower.Role() != RoleLeader || follower.Epoch() != 1 {
		t.Fatalf("after promote: role=%s epoch=%d", follower.Role(), follower.Epoch())
	}
	if _, err := follower.Export("CarRentalService", carRef(7), carProps("AUDI", 90, "USD")); err != nil {
		t.Fatalf("export on promoted leader: %v", err)
	}

	// The promoted epoch survives a restart (it is journalled).
	fj.Close()
	follower2, fj2 := newDurableTrader(t, "L", fdir, journal.Options{Fsync: journal.FsyncAlways})
	defer fj2.Close()
	if follower2.Epoch() != 1 {
		t.Fatalf("recovered epoch = %d, want 1", follower2.Epoch())
	}

	// The deposed leader sees the higher epoch on a pull and demotes.
	if _, err := leader.PullBatch(ctx, "f2", 1, 0, 512, 0); err == nil {
		t.Fatal("deposed leader accepted a pull at a higher epoch")
	}
	if leader.Role() != RoleFollower {
		t.Fatalf("deposed leader role = %s, want follower", leader.Role())
	}
	if _, err := leader.Export("CarRentalService", carRef(8), carProps("AUDI", 90, "USD")); !errors.Is(err, ErrNotLeader) {
		t.Fatalf("deposed leader export: %v, want ErrNotLeader", err)
	}

	// A batch carrying a stale epoch is fenced by the receiver.
	if _, err := follower2.ApplyBatch(&ReplBatch{Epoch: 0, LastSeq: 1}); err == nil {
		t.Fatal("ApplyBatch accepted a batch below the local epoch")
	}
}

// TestReplSyncAck: with WithReplSync(1, ...) an export only returns
// once a follower has pulled past its record — and fails with a
// timeout when no follower ever does.
func TestReplSyncAck(t *testing.T) {
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways},
		WithReplSync(1, 300*time.Millisecond))
	defer lj.Close()
	// Type definitions replicate too, so even DefineTypeSIDL waits;
	// run the follower loop first.
	follower, fjr := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer fjr.Close()
	follower.SetFollower("cosm://leader")
	fl := follower.JoinCell(CellConfig{Dial: func(context.Context, string) (CellPeer, error) {
		return inProc{leader}, nil
	}})

	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	id, err := leader.Export("CarRentalService", carRef(1), carProps("AUDI", 100, "USD"))
	if err != nil {
		t.Fatal(err)
	}

	// The acked export is already on the follower.
	deadline := time.Now().Add(2 * time.Second)
	for follower.ReplApplied() < leader.Status().LastSeq {
		if time.Now().After(deadline) {
			t.Fatal("follower never caught up")
		}
		time.Sleep(5 * time.Millisecond)
	}
	offers, err := follower.Import(context.Background(), ImportRequest{Type: "CarRentalService"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].ID != id {
		t.Fatalf("follower offers = %v", offers)
	}
	fl.Close()

	// With the follower stopped, the next acked mutation times out.
	if _, err := leader.Export("CarRentalService", carRef(2), carProps("AUDI", 100, "USD")); err == nil {
		t.Fatal("export succeeded without any follower ack")
	} else if !strings.Contains(err.Error(), "followers acked") {
		t.Fatalf("unexpected error: %v", err)
	}
}

// TestReplLagMetrics: the lag gauges see a follower fall behind and
// recover.
func TestReplLagMetrics(t *testing.T) {
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	follower, fj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer fj.Close()
	follower.SetFollower("cosm://leader")
	syncUp(t, leader, follower, "f1")
	if lag := follower.replLagRecords(); lag != 0 {
		t.Fatalf("caught-up lag = %d", lag)
	}

	for i := 0; i < 3; i++ {
		if _, err := leader.Export("CarRentalService", carRef(i), carProps("AUDI", 100, "USD")); err != nil {
			t.Fatal(err)
		}
	}
	// One empty pull refreshes the follower's view of the leader tail
	// without applying anything new past it.
	b, err := leader.PullBatch(context.Background(), "f1", follower.Epoch(), follower.ReplApplied(), 1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := follower.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	if lag := follower.replLagRecords(); lag != 2 {
		t.Fatalf("lag = %d, want 2", lag)
	}
	syncUp(t, leader, follower, "f1")
	if lag := follower.replLagRecords(); lag != 0 {
		t.Fatalf("post-sync lag = %d", lag)
	}
	if leader.replLagRecords() != 0 {
		t.Fatal("leader reports replication lag")
	}
}

// TestReplBootstrapSnapshotCarriesPreloads: state that exists only in
// the leader's boot snapshot — service types preloaded outside the
// journal, compacted at watermark 0 — must reach a brand-new follower;
// record replay alone would silently miss it.
func TestReplBootstrapSnapshotCarriesPreloads(t *testing.T) {
	ctx := context.Background()
	repo := typemgr.NewRepo()
	carType, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.DefineWithSource(carType, sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	leader := New("L", repo)
	lj, err := journal.Open(t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	defer lj.Close()
	if err := lj.Start(leader.JournalSnapshot); err != nil {
		t.Fatal(err)
	}
	leader.SetJournal(lj)
	// The daemon's boot-time compaction: the preloaded type exists only
	// in this snapshot, at watermark 0.
	if err := lj.Compact(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		if _, err := leader.Export("CarRentalService", carRef(i), carProps("AUDI", 100, "USD")); err != nil {
			t.Fatal(err)
		}
	}

	follower := New("L", typemgr.NewRepo())
	follower.SetFollower("cosm://leader")
	b, err := leader.PullBatch(ctx, "f1", 0, 0, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Snapshot == nil {
		t.Fatal("fresh follower did not get a bootstrap snapshot")
	}
	if _, err := follower.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	syncUp(t, leader, follower, "f1")

	if _, err := follower.Types().Lookup("CarRentalService"); err != nil {
		t.Fatalf("preloaded type missing on follower: %v", err)
	}
	offers, err := follower.Import(ctx, ImportRequest{Type: "CarRentalService"})
	if err != nil || len(offers) != 2 {
		t.Fatalf("follower import = %d offers, %v", len(offers), err)
	}
}

// TestReplSnapshotSeesUnackedWrites: with synchronous replication a
// mutation sits journalled-but-blocked until a follower acks it. A
// bootstrap snapshot cut during that window used to miss the offer
// while claiming a watermark that covered its record — the follower
// came up "caught up" and empty. The snapshot must include every
// journalled record its watermark covers.
func TestReplSnapshotSeesUnackedWrites(t *testing.T) {
	ctx := context.Background()
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncAlways})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	// The daemon's boot-time compaction, so bootstrap pulls take the
	// snapshot path. Synchronous replication goes on after the preload —
	// a real leader has its followers by the time it serves mutations.
	if err := lj.Compact(); err != nil {
		t.Fatal(err)
	}
	WithReplSync(1, 5*time.Second)(leader)

	exported := make(chan error, 1)
	go func() {
		_, err := leader.Export("CarRentalService", carRef(1), carProps("AUDI", 90, "USD"))
		exported <- err
	}()
	// Wait until the export's record is journalled (it then blocks in
	// waitReplicated until our pull below acks it).
	deadline := time.Now().Add(2 * time.Second)
	for lj.Stats().LastSeq == lj.Stats().SnapshotSeq {
		if time.Now().After(deadline) {
			t.Fatal("export record never reached the journal")
		}
		time.Sleep(time.Millisecond)
	}

	follower := New("L", typemgr.NewRepo())
	follower.SetFollower("cosm://leader")
	b, err := leader.PullBatch(ctx, "f1", 0, 0, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Snapshot == nil {
		t.Fatal("bootstrap pull did not ship a snapshot")
	}
	if _, err := follower.ApplyBatch(b); err != nil {
		t.Fatal(err)
	}
	syncUp(t, leader, follower, "f1") // acks the export's seq

	if err := <-exported; err != nil {
		t.Fatalf("export: %v", err)
	}
	offers, err := follower.Import(ctx, ImportRequest{Type: "CarRentalService"})
	if err != nil || len(offers) != 1 {
		t.Fatalf("follower import = %d offers, %v: snapshot missed an unacked write", len(offers), err)
	}
}

// TestSnapshotInstallRacesCompaction: a journalled follower installs a
// leader snapshot again and again while its own journal compacts. The
// install and the compaction's state fold are both steps of the
// journal's write-ahead order, so they must take their locks in the
// journal's one order: a lock of the trader's held across the install
// and taken again by the fold deadlocks here within a few rounds.
func TestSnapshotInstallRacesCompaction(t *testing.T) {
	leader, lj := newDurableTrader(t, "L", t.TempDir(), journal.Options{Fsync: journal.FsyncNever})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 50; i++ {
		if _, err := leader.Export("CarRentalService", carRef(i), carProps("AUDI", float64(100+i), "USD")); err != nil {
			t.Fatal(err)
		}
	}
	b, err := leader.PullBatch(context.Background(), "f1", 0, 0, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	if b.Snapshot == nil {
		t.Fatal("bootstrap pull did not ship a snapshot")
	}
	follower, fj := newDurableTrader(t, "F", t.TempDir(), journal.Options{Fsync: journal.FsyncNever})
	defer fj.Close()
	follower.SetFollower("cosm://leader")

	const rounds = 200
	var round atomic.Int64
	stop := make(chan struct{})
	var compactions sync.WaitGroup
	compactions.Add(1)
	go func() {
		defer compactions.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := fj.Compact(); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	done := make(chan error, 1)
	go func() {
		for i := 1; i <= rounds; i++ {
			round.Store(int64(i))
			if _, err := follower.ApplyBatch(b); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	select {
	case err := <-done:
		close(stop)
		compactions.Wait()
		if err != nil {
			t.Fatalf("round %d: %v", round.Load(), err)
		}
	case <-time.After(20 * time.Second):
		t.Fatalf("snapshot install and compaction deadlocked in round %d of %d", round.Load(), rounds)
	}
	if got := follower.OfferCount(); got != 50 {
		t.Fatalf("follower holds %d offers after the installs, want 50", got)
	}
}
