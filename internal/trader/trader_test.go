package trader

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

func newCarRepo(t *testing.T) *typemgr.Repo {
	t.Helper()
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		t.Fatal(err)
	}
	return repo
}

func carProps(model string, charge float64, currency string) []sidl.Property {
	return []sidl.Property{
		{Name: "CarModel", Value: sidl.EnumLit(model)},
		{Name: "AverageMilage", Value: sidl.IntLit(38000)},
		{Name: "ChargePerDay", Value: sidl.FloatLit(charge)},
		{Name: "ChargeCurrency", Value: sidl.EnumLit(currency)},
	}
}

func carRef(i int) ref.ServiceRef {
	return ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", i), "CarRentalService")
}

// TestExportRefusesRefWithoutText: the journal and every import carry an
// offer's ref as text, so every export path refuses a ref whose text
// does not parse back to it, before anything is journalled. Accepted,
// the nil ref failed the next recovery, an endpoint-only ref failed
// every wire import of its type, and a slash in the service name moved
// the split between endpoint and service.
func TestExportRefusesRefWithoutText(t *testing.T) {
	tr := New("T1", newCarRepo(t))
	props := carProps("FIAT_Uno", 80, "USD")
	for _, r := range []ref.ServiceRef{{}, {Endpoint: "tcp:10.0.0.1:7000"}, ref.New("tcp:10.0.0.1:7000", "a/b")} {
		for name, export := range map[string]func() error{
			"Export":      func() error { _, err := tr.Export("CarRentalService", r, props); return err },
			"ExportLease": func() error { _, err := tr.ExportLease("CarRentalService", r, props, time.Minute); return err },
			"ExportSID":   func() error { _, err := tr.ExportSID(sidl.CarRentalSID(), r); return err },
			"ExportAll": func() error {
				_, err := tr.ExportAll([]ExportItem{{Type: "CarRentalService", Ref: carRef(1), Props: props},
					{Type: "CarRentalService", Ref: r, Props: props}})
				return err
			},
		} {
			if err := export(); !errors.Is(err, ref.ErrBadRef) {
				t.Errorf("%s with %+v = %v, want ref.ErrBadRef", name, r, err)
			}
		}
	}
	if n := tr.OfferCount(); n != 0 {
		t.Fatalf("%d offers accepted", n)
	}
}

func TestExportImportWithdraw(t *testing.T) {
	tr := New("T1", newCarRepo(t))
	ctx := context.Background()

	id1, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD"))
	if err != nil {
		t.Fatal(err)
	}
	id2, err := tr.Export("CarRentalService", carRef(2), carProps("AUDI", 120, "DEM"))
	if err != nil {
		t.Fatal(err)
	}
	if id1 == id2 {
		t.Fatal("offer ids must be unique")
	}
	if tr.OfferCount() != 2 {
		t.Fatalf("OfferCount = %d", tr.OfferCount())
	}

	// Unconstrained import returns both, in stable order.
	offers, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 || offers[0].ID != id1 {
		t.Fatalf("offers = %+v", offers)
	}

	// Constrained import.
	offers, err = tr.Import(ctx, ImportRequest{
		Type:       "CarRentalService",
		Constraint: "ChargePerDay < 100 && ChargeCurrency == USD",
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Ref != carRef(1) {
		t.Fatalf("constrained offers = %+v", offers)
	}

	// Withdraw removes the offer from matching.
	if err := tr.Withdraw(id1); err != nil {
		t.Fatal(err)
	}
	if err := tr.Withdraw(id1); !errors.Is(err, ErrOfferUnknown) {
		t.Fatalf("double withdraw err = %v", err)
	}
	offers, _ = tr.Import(ctx, ImportRequest{Type: "CarRentalService"})
	if len(offers) != 1 || offers[0].ID != id2 {
		t.Fatalf("after withdraw = %+v", offers)
	}
}

func TestExportValidatesOffer(t *testing.T) {
	tr := New("T1", newCarRepo(t))
	// Unknown type.
	if _, err := tr.Export("Ghost", carRef(1), nil); !errors.Is(err, typemgr.ErrTypeUnknown) {
		t.Fatalf("err = %v", err)
	}
	// Missing attribute.
	if _, err := tr.Export("CarRentalService", carRef(1), carProps("AUDI", 1, "USD")[:2]); !errors.Is(err, typemgr.ErrMissingAttr) {
		t.Fatalf("err = %v", err)
	}
	// Mistyped attribute.
	bad := carProps("AUDI", 1, "USD")
	bad[2].Value = sidl.StringLit("eighty")
	if _, err := tr.Export("CarRentalService", carRef(1), bad); !errors.Is(err, typemgr.ErrAttrMismatch) {
		t.Fatalf("err = %v", err)
	}
}

func TestReplace(t *testing.T) {
	tr := New("T1", newCarRepo(t))
	ctx := context.Background()
	id, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tr.Replace(id, carProps("FIAT_Uno", 60, "USD")); err != nil {
		t.Fatal(err)
	}
	offers, _ := tr.Import(ctx, ImportRequest{Type: "CarRentalService", Constraint: "ChargePerDay == 60"})
	if len(offers) != 1 {
		t.Fatalf("offers = %+v", offers)
	}
	if err := tr.Replace("ghost", carProps("AUDI", 1, "USD")); !errors.Is(err, ErrOfferUnknown) {
		t.Fatalf("err = %v", err)
	}
	bad := carProps("AUDI", 1, "USD")[:1]
	if err := tr.Replace(id, bad); !errors.Is(err, typemgr.ErrMissingAttr) {
		t.Fatalf("err = %v", err)
	}
}

func TestImportPolicies(t *testing.T) {
	tr := New("T1", newCarRepo(t))
	ctx := context.Background()
	charges := []float64{90, 40, 120, 70}
	for i, c := range charges {
		if _, err := tr.Export("CarRentalService", carRef(i), carProps("AUDI", c, "USD")); err != nil {
			t.Fatal(err)
		}
	}

	best, err := ImportOne(ctx, tr, ImportRequest{Type: "CarRentalService", Policy: "min:ChargePerDay"})
	if err != nil {
		t.Fatal(err)
	}
	if v, _ := best.Props["ChargePerDay"]; v.Float != 40 {
		t.Fatalf("min policy picked %v", v)
	}
	best, err = ImportOne(ctx, tr, ImportRequest{Type: "CarRentalService", Policy: "max:ChargePerDay"})
	if err != nil {
		t.Fatal(err)
	}
	if v := best.Props["ChargePerDay"]; v.Float != 120 {
		t.Fatalf("max policy picked %v", v)
	}

	// Random policy returns some offer; with Max it truncates.
	offers, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService", Policy: "random", Max: 2})
	if err != nil || len(offers) != 2 {
		t.Fatalf("random offers = %+v, %v", offers, err)
	}

	// Bad policy and bad constraint are errors.
	if _, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService", Policy: "nope"}); !errors.Is(err, ErrPolicy) {
		t.Fatalf("err = %v", err)
	}
	if _, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService", Constraint: "(("}); !errors.Is(err, ErrConstraint) {
		t.Fatalf("err = %v", err)
	}

	// ImportOne with no match.
	if _, err := ImportOne(ctx, tr, ImportRequest{Type: "CarRentalService", Constraint: "ChargePerDay < 0"}); !errors.Is(err, ErrNoOffer) {
		t.Fatalf("err = %v", err)
	}
}

func TestImportSubtypeOffers(t *testing.T) {
	// Offers of a conforming subtype satisfy imports of the base type.
	repo := newCarRepo(t)
	base, _ := repo.Lookup("CarRentalService")
	lux := &typemgr.ServiceType{
		Name:      "LuxuryCarRentalService",
		Super:     "CarRentalService",
		Attrs:     append(append([]typemgr.AttrDef{}, base.Attrs...), typemgr.AttrDef{Name: "Chauffeur", Type: sidl.Basic(sidl.Bool)}),
		Signature: base.Signature,
	}
	if err := repo.Define(lux); err != nil {
		t.Fatal(err)
	}
	tr := New("T1", repo)
	ctx := context.Background()
	luxProps := append(carProps("AUDI", 300, "USD"), sidl.Property{Name: "Chauffeur", Value: sidl.BoolLit(true)})
	if _, err := tr.Export("LuxuryCarRentalService", carRef(9), luxProps); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD")); err != nil {
		t.Fatal(err)
	}

	offers, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("base import must see subtype offers: %+v", offers)
	}
	// The reverse does not hold.
	offers, err = tr.Import(ctx, ImportRequest{Type: "LuxuryCarRentalService"})
	if err != nil || len(offers) != 1 {
		t.Fatalf("luxury import = %+v, %v", offers, err)
	}
}

func TestImportWithoutIndexMatchesIndexed(t *testing.T) {
	ctx := context.Background()
	indexed := New("A", newCarRepo(t))
	linear := New("B", newCarRepo(t), WithoutOfferIndex(), WithConstraintCacheSize(0))
	for i := 0; i < 10; i++ {
		props := carProps("AUDI", float64(50+i*10), "USD")
		if _, err := indexed.Export("CarRentalService", carRef(i), props); err != nil {
			t.Fatal(err)
		}
		if _, err := linear.Export("CarRentalService", carRef(i), props); err != nil {
			t.Fatal(err)
		}
	}
	req := ImportRequest{Type: "CarRentalService", Constraint: "ChargePerDay >= 70 && ChargePerDay < 120", Policy: "min:ChargePerDay"}
	a, err := indexed.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	b, err := linear.Import(ctx, req)
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != len(b) || len(a) != 5 {
		t.Fatalf("indexed %d vs linear %d offers", len(a), len(b))
	}
	for i := range a {
		if a[i].Ref != b[i].Ref {
			t.Fatalf("offer %d differs: %v vs %v", i, a[i].Ref, b[i].Ref)
		}
	}
}

// mustLink registers a federation link or fails the test.
func mustLink(t testing.TB, tr *Trader, name string, peer Federate) {
	t.Helper()
	if err := tr.AddLink(name, peer); err != nil {
		t.Fatalf("AddLink(%q): %v", name, err)
	}
}

func TestFederationInProcess(t *testing.T) {
	ctx := context.Background()
	// Three traders in a chain A <-> B <-> C (bidirectional links, so
	// loop protection matters).
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	c := New("C", newCarRepo(t))
	mustLink(t, a, "b", b)
	mustLink(t, b, "a", a)
	mustLink(t, b, "c", c)
	mustLink(t, c, "b", b)

	if _, err := c.Export("CarRentalService", carRef(3), carProps("VW_Golf", 55, "DEM")); err != nil {
		t.Fatal(err)
	}

	// Hop limit 0: local only, no results at A.
	offers, err := a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 0})
	if err != nil || len(offers) != 0 {
		t.Fatalf("hop 0 offers = %+v, %v", offers, err)
	}
	// Hop limit 1 reaches B only — still nothing.
	offers, err = a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil || len(offers) != 0 {
		t.Fatalf("hop 1 offers = %+v, %v", offers, err)
	}
	// Hop limit 2 reaches C.
	offers, err = a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 2})
	if err != nil || len(offers) != 1 || offers[0].Ref != carRef(3) {
		t.Fatalf("hop 2 offers = %+v, %v", offers, err)
	}
}

func TestFederationDeduplicates(t *testing.T) {
	ctx := context.Background()
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	mustLink(t, a, "b", b)
	// The same service (same reference) is exported at both traders.
	if _, err := a.Export("CarRentalService", carRef(1), carProps("AUDI", 99, "USD")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Export("CarRentalService", carRef(1), carProps("AUDI", 99, "USD")); err != nil {
		t.Fatal(err)
	}
	offers, err := a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil || len(offers) != 1 {
		t.Fatalf("dedup offers = %+v, %v", offers, err)
	}
}

// blackholeFederate simulates a dead federation partner: the query never
// answers until the caller's context gives up.
type blackholeFederate struct{ id string }

func (f *blackholeFederate) FederationID() string { return f.id }

func (f *blackholeFederate) ImportGraded(ctx context.Context, _ ImportRequest) ([]Match, error) {
	<-ctx.Done()
	return nil, ctx.Err()
}

// A federated import over a dead link must still return the partial
// results from live links within the caller's deadline, instead of
// hanging on (or failing because of) the black-holed partner.
func TestFederationPartialResultsOverDeadLink(t *testing.T) {
	a := New("A", newCarRepo(t))
	live := New("B", newCarRepo(t))
	mustLink(t, a, "dead", &blackholeFederate{id: "DEAD"})
	mustLink(t, a, "live", live)
	if _, err := live.Export("CarRentalService", carRef(7), carProps("AUDI", 70, "USD")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 300*time.Millisecond)
	defer cancel()
	start := time.Now()
	offers, err := a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	elapsed := time.Since(start)
	if err != nil {
		t.Fatalf("Import over dead link: %v", err)
	}
	if len(offers) != 1 || offers[0].Ref != carRef(7) {
		t.Fatalf("offers = %+v, want the live link's offer", offers)
	}
	if elapsed > 400*time.Millisecond {
		t.Fatalf("import took %v, must finish within the caller's deadline", elapsed)
	}
}

// Without any live results the query still returns (empty) by the
// deadline rather than hanging.
func TestFederationAllLinksDeadReturnsByDeadline(t *testing.T) {
	a := New("A", newCarRepo(t))
	mustLink(t, a, "d1", &blackholeFederate{id: "D1"})
	mustLink(t, a, "d2", &blackholeFederate{id: "D2"})

	ctx, cancel := context.WithTimeout(context.Background(), 100*time.Millisecond)
	defer cancel()
	start := time.Now()
	offers, err := a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil {
		t.Fatalf("Import: %v", err)
	}
	if len(offers) != 0 {
		t.Fatalf("offers = %+v, want none", offers)
	}
	if elapsed := time.Since(start); elapsed > 300*time.Millisecond {
		t.Fatalf("import took %v, want ~deadline", elapsed)
	}
}

func TestFederationLoopTerminates(t *testing.T) {
	ctx := context.Background()
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	mustLink(t, a, "b", b)
	mustLink(t, b, "a", a)
	// Huge hop limit over a 2-cycle must terminate via the visited set.
	if _, err := b.Export("CarRentalService", carRef(2), carProps("AUDI", 10, "USD")); err != nil {
		t.Fatal(err)
	}
	offers, err := a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 50})
	if err != nil || len(offers) != 1 {
		t.Fatalf("offers = %+v, %v", offers, err)
	}
}
