// The paper's running example, end to end: three car rental companies
// publish their services in the Common Open Service Market; a client
// finds them both ways — by browsing (mediation, Fig. 4) and by typed
// trader import with constraints and selection policies (Fig. 1) — then
// books a car through the generated user interface while the FSM
// protocol is enforced on both sides.
//
//	go run ./examples/carrental
package main

import (
	"context"
	"errors"
	"fmt"
	"log"

	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/naming"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	// --- Infrastructure node: name server, browser, trader (Fig. 6).
	infra := cosm.NewNode()
	nameSvc, err := naming.NewService(naming.NewRegistry())
	if err != nil {
		return err
	}
	browserSvc, err := browser.NewService(browser.NewDirectory())
	if err != nil {
		return err
	}
	repo := typemgr.NewRepo()
	carType, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		return err
	}
	if err := repo.Define(carType); err != nil {
		return err
	}
	tr := trader.New("hamburg", repo)
	traderSvc, err := trader.NewService(tr)
	if err != nil {
		return err
	}
	for name, svc := range map[string]*cosm.Service{
		naming.ServiceName:  nameSvc,
		browser.ServiceName: browserSvc,
		trader.ServiceName:  traderSvc,
	} {
		if err := infra.Host(name, svc); err != nil {
			return err
		}
	}
	if _, err := infra.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		return err
	}
	defer infra.Close()
	fmt.Println("== infrastructure node at", infra.Endpoint())

	// Register the well-known components at the name server.
	nc, err := naming.DialNameServer(ctx, infra.Pool(), infra.MustRefFor(naming.ServiceName))
	if err != nil {
		return err
	}
	for _, svcName := range []string{browser.ServiceName, trader.ServiceName} {
		if err := nc.Register(ctx, svcName, infra.MustRefFor(svcName)); err != nil {
			return err
		}
	}

	// --- Three competing providers on their own nodes.
	type company struct {
		name   string
		tariff carrental.Tariff
	}
	companies := []company{
		{"AlsterCars", carrental.Tariff{"AUDI": 110, "FIAT_Uno": 85, "VW_Golf": 95}},
		{"ElbeRental", carrental.Tariff{"AUDI": 125, "FIAT_Uno": 78, "VW_Golf": 99}},
		{"HafenAutos", carrental.Tariff{"FIAT_Uno": 92}},
	}
	bc, err := browser.DialBrowser(ctx, infra.Pool(), infra.MustRefFor(browser.ServiceName))
	if err != nil {
		return err
	}
	tc, err := trader.DialTrader(ctx, infra.Pool(), infra.MustRefFor(trader.ServiceName))
	if err != nil {
		return err
	}
	for _, co := range companies {
		node := cosm.NewNode()
		svc, impl, err := carrental.New(carrental.WithTariff(co.tariff))
		if err != nil {
			return err
		}
		if err := node.Host(co.name, svc); err != nil {
			return err
		}
		if _, err := node.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
			return err
		}
		defer node.Close()

		// Publish: the SID with per-company trader export properties.
		sid := impl.SID().Clone()
		sid.ServiceName = co.name
		fiat := co.tariff["FIAT_Uno"]
		for i, p := range sid.Trader.Properties {
			if p.Name == "ChargePerDay" {
				sid.Trader.Properties[i].Value = sidl.FloatLit(fiat)
			}
		}
		self := node.MustRefFor(co.name)
		if _, err := carrental.Publish(ctx, sid, self, bc, tc); err != nil {
			return err
		}
		fmt.Printf("== %s published at %s (FIAT_Uno at %.0f/day)\n", co.name, self, fiat)
	}

	// --- Path 1: browser mediation. The client knows only a keyword.
	pool := wire.NewPool()
	defer pool.Close()
	gc := genclient.New(pool)
	fmt.Println("\n== browsing for \"rent\" (mediation, Fig. 4):")
	entries, err := gc.Browse(ctx, infra.MustRefFor(browser.ServiceName), "rent")
	if err != nil {
		return err
	}
	for _, e := range entries {
		fmt.Printf("   %-12s %s\n", e.Name, e.Ref)
	}

	// --- Path 2: typed trader import (Fig. 1): cheapest FIAT_Uno.
	fmt.Println("\n== trader import: CarRentalService, ChargePerDay < 90, min:ChargePerDay")
	offer, err := trader.ImportOne(ctx, tc, trader.NewImport("CarRentalService",
		trader.Where("CarModel == FIAT_Uno && ChargePerDay < 90"),
		trader.OrderBy("min:ChargePerDay")))
	if err != nil {
		return err
	}
	fmt.Printf("   best offer: %s at %s (%.0f/day)\n",
		offer.ID, offer.Ref, offer.Props["ChargePerDay"].Float)

	// --- Bind and book through the generated UI, FSM enforced.
	binding, err := gc.Bind(ctx, offer.Ref)
	if err != nil {
		return err
	}
	fmt.Println("\n== booking at the selected provider:")
	fmt.Printf("   state: %s, allowed: %v\n", binding.State(), binding.AllowedOps())

	// An illegal Commit is intercepted locally, before any RPC.
	if _, err := binding.Invoke(ctx, "Commit"); errors.Is(err, genclient.ErrProtocol) {
		fmt.Println("   Commit in INIT intercepted locally:", err)
	}

	res, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model":       "FIAT_Uno",
		"SelectCar.selection.bookingDate": "1994-06-21",
		"SelectCar.selection.days":        "3",
	})
	if err != nil {
		return err
	}
	charge, _ := res.Value.Field("charge")
	fmt.Printf("   SelectCar(FIAT_Uno, 3 days) -> charge %.0f, state %s\n", charge.Float, binding.State())

	res, err = binding.Invoke(ctx, "Commit")
	if err != nil {
		return err
	}
	confirmation, _ := res.Value.Field("confirmation")
	fmt.Printf("   Commit() -> %s, state %s\n", confirmation.Str, binding.State())

	// The name server still resolves the infrastructure for newcomers.
	traderRef, err := nc.Resolve(ctx, trader.ServiceName)
	if err != nil {
		return err
	}
	fmt.Println("\n== name server resolves", trader.ServiceName, "->", traderRef)
	return nil
}
