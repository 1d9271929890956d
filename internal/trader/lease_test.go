package trader

import (
	"context"
	"testing"
	"time"

	"cosm/internal/sidl"
)

// fakeClock is a settable time source for lease tests.
type fakeClock struct{ t time.Time }

func (c *fakeClock) now() time.Time          { return c.t }
func (c *fakeClock) advance(d time.Duration) { c.t = c.t.Add(d) }

func TestLeaseExpiryStopsMatching(t *testing.T) {
	clock := &fakeClock{t: time.Date(1994, 6, 21, 12, 0, 0, 0, time.UTC)}
	tr := New("T", newCarRepo(t), withClock(clock.now))
	ctx := context.Background()

	leased, err := tr.ExportLease("CarRentalService", carRef(1), carProps("AUDI", 80, "USD"), time.Hour)
	if err != nil {
		t.Fatal(err)
	}
	forever, err := tr.Export("CarRentalService", carRef(2), carProps("AUDI", 90, "USD"))
	if err != nil {
		t.Fatal(err)
	}

	offers, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService"})
	if err != nil || len(offers) != 2 {
		t.Fatalf("before expiry: %d offers, %v", len(offers), err)
	}
	if tr.OfferCount() != 2 {
		t.Fatalf("OfferCount = %d", tr.OfferCount())
	}

	// One hour and a second later the leased offer is gone from
	// matching, while the permanent one stays.
	clock.advance(time.Hour + time.Second)
	offers, err = tr.Import(ctx, ImportRequest{Type: "CarRentalService"})
	if err != nil || len(offers) != 1 || offers[0].ID != forever {
		t.Fatalf("after expiry: %+v, %v", offers, err)
	}
	if tr.OfferCount() != 1 {
		t.Fatalf("OfferCount after expiry = %d", tr.OfferCount())
	}

	// PurgeExpired reclaims storage; the expired offer can no longer be
	// withdrawn.
	if n := tr.PurgeExpired(); n != 1 {
		t.Fatalf("PurgeExpired = %d", n)
	}
	if n := tr.PurgeExpired(); n != 0 {
		t.Fatalf("second PurgeExpired = %d", n)
	}
	if err := tr.Withdraw(leased); err == nil {
		t.Fatal("withdrawing a purged offer must fail")
	}
	if err := tr.Withdraw(forever); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseRenewalByReexport(t *testing.T) {
	// A provider keeps its offer alive by re-exporting before expiry —
	// the lease idiom. (The old offer is withdrawn by the provider.)
	clock := &fakeClock{t: time.Unix(0, 0)}
	tr := New("T", newCarRepo(t), withClock(clock.now))
	ctx := context.Background()

	id1, err := tr.ExportLease("CarRentalService", carRef(1), carProps("AUDI", 80, "USD"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	clock.advance(50 * time.Second)
	id2, err := tr.ExportLease("CarRentalService", carRef(1), carProps("AUDI", 80, "USD"), time.Minute)
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id1); err != nil {
		t.Fatal(err)
	}
	clock.advance(30 * time.Second) // 80s total: id1 would have expired
	offers, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService"})
	if err != nil || len(offers) != 1 || offers[0].ID != id2 {
		t.Fatalf("after renewal: %+v, %v", offers, err)
	}
}

func TestNegativeLeaseRejected(t *testing.T) {
	tr := New("T", newCarRepo(t))
	if _, err := tr.ExportLease("CarRentalService", carRef(1), carProps("AUDI", 1, "USD"), -time.Second); err == nil {
		t.Fatal("negative lease must fail")
	}
}

func TestRemoteExportLease(t *testing.T) {
	node, tr, traderRef := startTraderNode(t, "trd-lease", "T1")
	ctx := context.Background()
	tc, err := DialTrader(ctx, node.Pool(), traderRef)
	if err != nil {
		t.Fatal(err)
	}
	id, err := tc.ExportLease(ctx, "CarRentalService", carRef(5), carProps("AUDI", 50, "USD"), 30*time.Second)
	if err != nil || id == "" {
		t.Fatalf("ExportLease = %q, %v", id, err)
	}
	// The offer is live now (wall clock: 30s have not passed).
	one, err := ImportOne(ctx, tc, ImportRequest{Type: "CarRentalService"})
	if err != nil || one.Ref != carRef(5) {
		t.Fatalf("ImportOne = %+v, %v", one, err)
	}
	// The lease expiry survives the wire round trip (Offer_t carries
	// expiresUnix).
	if one.Expires.IsZero() {
		t.Fatal("lease expiry lost across the wire")
	}
	_ = tr
}

func TestOffersSnapshot(t *testing.T) {
	clock := &fakeClock{t: time.Unix(1000, 0)}
	tr := New("T", newCarRepo(t), withClock(clock.now))
	if _, err := tr.Export("CarRentalService", carRef(2), carProps("AUDI", 90, "USD")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ExportLease("CarRentalService", carRef(1), carProps("AUDI", 80, "USD"), time.Minute); err != nil {
		t.Fatal(err)
	}
	offers := tr.Offers()
	if len(offers) != 2 || offers[0].ID >= offers[1].ID {
		t.Fatalf("Offers = %+v", offers)
	}
	// Snapshot is a copy: mutating it does not affect the store.
	offers[0].Props["ChargePerDay"] = sidl.FloatLit(1)
	fresh := tr.Offers()
	if fresh[0].Props["ChargePerDay"] == sidl.FloatLit(1) {
		t.Fatal("Offers must return clones")
	}
	clock.advance(2 * time.Minute)
	if got := tr.Offers(); len(got) != 1 {
		t.Fatalf("expired offer still listed: %+v", got)
	}
}
