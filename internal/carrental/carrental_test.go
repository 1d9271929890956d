package carrental

import (
	"context"
	"errors"
	"strings"
	"testing"

	"cosm/internal/browser"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

func startRental(t *testing.T, loopName string) (*cosm.Node, *Service, ref.ServiceRef) {
	t.Helper()
	svc, impl, err := New()
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, impl, node.MustRefFor("CarRentalService")
}

func TestBookingFlow(t *testing.T) {
	node, impl, carRef := startRental(t, "cr-flow")
	gc := genclient.New(node.Pool())
	ctx := context.Background()
	b, err := gc.Bind(ctx, carRef)
	if err != nil {
		t.Fatal(err)
	}

	res, err := b.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model":       "FIAT_Uno",
		"SelectCar.selection.bookingDate": "1994-06-21",
		"SelectCar.selection.days":        "3",
	})
	if err != nil {
		t.Fatal(err)
	}
	charge, _ := res.Value.Field("charge")
	if charge.Float != 240 {
		t.Fatalf("charge = %v", charge)
	}

	// Re-selection is allowed by the FSM and replaces the choice.
	res, err = b.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "AUDI",
		"SelectCar.selection.days":  "2",
	})
	if err != nil {
		t.Fatal(err)
	}
	charge, _ = res.Value.Field("charge")
	if charge.Float != 240 { // AUDI 120 * 2
		t.Fatalf("re-selection charge = %v", charge)
	}

	res, err = b.Invoke(ctx, "Commit")
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := res.Value.Field("confirmation")
	if !strings.Contains(conf.Str, "AUDI-2d") {
		t.Fatalf("confirmation = %q", conf.Str)
	}
	if impl.Bookings() != 1 {
		t.Fatalf("bookings = %d", impl.Bookings())
	}
}

func TestUnavailableModel(t *testing.T) {
	node, _, _ := startRental(t, "cr-unavailable")
	gc := genclient.New(node.Pool())
	ctx := context.Background()
	// A fresh service with a restricted tariff: VW_Golf is not offered.
	svc, _, err := New(WithTariff(Tariff{"AUDI": 100}))
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host("SmallRental", svc); err != nil {
		t.Fatal(err)
	}
	b2, err := gc.Bind(ctx, node.MustRefFor("SmallRental"))
	if err != nil {
		t.Fatal(err)
	}
	res, err := b2.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "VW_Golf",
		"SelectCar.selection.days":  "1",
	})
	if err != nil {
		t.Fatal(err)
	}
	if avail, _ := res.Value.Field("available"); avail.Bool {
		t.Fatal("VW_Golf should be unavailable in the restricted tariff")
	}
}

func TestRejectsNonPositiveDays(t *testing.T) {
	node, _, carRef := startRental(t, "cr-days")
	gc := genclient.New(node.Pool())
	ctx := context.Background()
	b, err := gc.Bind(ctx, carRef)
	if err != nil {
		t.Fatal(err)
	}
	_, err = b.InvokeForm(ctx, "SelectCar", map[string]string{"SelectCar.selection.days": "0"})
	var re *wire.RemoteError
	if !errors.As(err, &re) || !strings.Contains(re.Msg, "days must be positive") {
		t.Fatalf("err = %v", err)
	}
}

func TestSessionsAreIsolated(t *testing.T) {
	node, impl, carRef := startRental(t, "cr-sessions")
	gc := genclient.New(node.Pool())
	ctx := context.Background()

	b1, err := gc.Bind(ctx, carRef)
	if err != nil {
		t.Fatal(err)
	}
	b2, err := gc.Bind(ctx, carRef)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := b1.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "AUDI", "SelectCar.selection.days": "1"}); err != nil {
		t.Fatal(err)
	}
	if _, err := b2.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "VW_Golf", "SelectCar.selection.days": "4"}); err != nil {
		t.Fatal(err)
	}
	res, err := b1.Invoke(ctx, "Commit")
	if err != nil {
		t.Fatal(err)
	}
	conf, _ := res.Value.Field("confirmation")
	if !strings.Contains(conf.Str, "AUDI-1d") {
		t.Fatalf("session 1 booked %q", conf.Str)
	}
	res, err = b2.Invoke(ctx, "Commit")
	if err != nil {
		t.Fatal(err)
	}
	conf, _ = res.Value.Field("confirmation")
	if !strings.Contains(conf.Str, "VW_Golf-4d") {
		t.Fatalf("session 2 booked %q", conf.Str)
	}
	if impl.Bookings() != 2 {
		t.Fatalf("bookings = %d", impl.Bookings())
	}
}

func TestPublishIntegrated(t *testing.T) {
	node, _, carRef := startRental(t, "cr-publish")
	ctx := context.Background()

	// Host a browser and a trader on the same node.
	bsvc, err := browser.NewService(browser.NewDirectory())
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(browser.ServiceName, bsvc); err != nil {
		t.Fatal(err)
	}
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		t.Fatal(err)
	}
	tr := trader.New("T1", repo)
	tsvc, err := trader.NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(trader.ServiceName, tsvc); err != nil {
		t.Fatal(err)
	}

	bc, err := browser.DialBrowser(ctx, node.Pool(), node.MustRefFor(browser.ServiceName))
	if err != nil {
		t.Fatal(err)
	}
	tc, err := trader.DialTrader(ctx, node.Pool(), node.MustRefFor(trader.ServiceName))
	if err != nil {
		t.Fatal(err)
	}

	pub, err := Publish(ctx, sidl.CarRentalSID(), carRef, bc, tc)
	if err != nil {
		t.Fatal(err)
	}
	if pub.Name != "CarRentalService" || pub.OfferID == "" {
		t.Fatalf("publication = %+v", pub)
	}

	// Reachable through the browser (mediation)...
	entries, err := bc.Search(ctx, "car")
	if err != nil || len(entries) != 1 || entries[0].Ref != carRef {
		t.Fatalf("browser entries = %v, %v", entries, err)
	}
	// ...and through the trader (typed import).
	offer, err := trader.ImportOne(ctx, tc, trader.NewImport("CarRentalService",
		trader.Where("ChargePerDay < 100"),
		trader.OrderBy("min:ChargePerDay")))
	if err != nil || offer.Ref != carRef {
		t.Fatalf("trader offer = %+v, %v", offer, err)
	}

	// Unpublish withdraws both registrations symmetrically.
	if err := pub.Unpublish(ctx); err != nil {
		t.Fatal(err)
	}
	if entries, _ := bc.Search(ctx, "car"); len(entries) != 0 {
		t.Fatalf("browser entries after unpublish = %v", entries)
	}
	if _, err := trader.ImportOne(ctx, tc, trader.NewImport("CarRentalService")); err == nil {
		t.Fatal("trader offer must be withdrawn after unpublish")
	}
}
