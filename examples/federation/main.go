// Trader federation and browser cascades across administrative domains
// (sections 2.2 and 3.2): Hamburg and Munich each run their own trader
// and browser. The traders are federated; the Munich browser registers
// itself at the Hamburg browser. A Hamburg client then finds Munich's
// offers both ways: a typed federated import with a hop budget, and a
// browser cascade followed by hand.
//
//	go run ./examples/federation
package main

import (
	"context"
	"fmt"
	"log"

	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

// domain is one administrative domain: a node hosting a trader and a
// browser.
type domain struct {
	name    string
	node    *cosm.Node
	trader  *trader.Trader
	browser *browser.Client
}

func newDomain(ctx context.Context, name string) (*domain, error) {
	repo := typemgr.NewRepo()
	carType, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		return nil, err
	}
	if err := repo.Define(carType); err != nil {
		return nil, err
	}
	d := &domain{name: name, node: cosm.NewNode(), trader: trader.New(name, repo)}
	traderSvc, err := trader.NewService(d.trader)
	if err != nil {
		return nil, err
	}
	browserSvc, err := browser.NewService(browser.NewDirectory())
	if err != nil {
		return nil, err
	}
	if err := d.node.Host(trader.ServiceName, traderSvc); err != nil {
		return nil, err
	}
	if err := d.node.Host(browser.ServiceName, browserSvc); err != nil {
		return nil, err
	}
	if _, err := d.node.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		return nil, err
	}
	if d.browser, err = browser.DialBrowser(ctx, d.node.Pool(), d.node.MustRefFor(browser.ServiceName)); err != nil {
		return nil, err
	}
	return d, nil
}

func main() {
	if err := run(); err != nil {
		log.Fatal(err)
	}
}

func run() error {
	ctx := context.Background()

	hamburg, err := newDomain(ctx, "hamburg")
	if err != nil {
		return err
	}
	defer hamburg.node.Close()
	munich, err := newDomain(ctx, "munich")
	if err != nil {
		return err
	}
	defer munich.node.Close()
	fmt.Println("== hamburg domain at", hamburg.node.Endpoint())
	fmt.Println("== munich domain at", munich.node.Endpoint())

	// Federate the traders over the wire, both directions.
	munichTrader, err := trader.DialTrader(ctx, hamburg.node.Pool(), munich.node.MustRefFor(trader.ServiceName))
	if err != nil {
		return err
	}
	if err := hamburg.trader.AddLink("munich", munichTrader); err != nil {
		return err
	}
	hamburgTrader, err := trader.DialTrader(ctx, munich.node.Pool(), hamburg.node.MustRefFor(trader.ServiceName))
	if err != nil {
		return err
	}
	if err := munich.trader.AddLink("hamburg", hamburgTrader); err != nil {
		return err
	}
	fmt.Println("== traders federated (hamburg <-> munich)")

	// Cascade the browsers: munich's browser registers at hamburg's.
	munichBrowserSID, err := cosm.Describe(ctx, hamburg.node.Pool(), munich.node.MustRefFor(browser.ServiceName))
	if err != nil {
		return err
	}
	munichBrowserSID.ServiceName = "MunichBrowser" // distinguish in listings
	if err := hamburg.browser.RegisterSID(ctx, munichBrowserSID, munich.node.MustRefFor(browser.ServiceName)); err != nil {
		return err
	}
	fmt.Println("== munich browser registered at hamburg browser (cascade)")

	// A provider publishes only in Munich.
	providerNode := cosm.NewNode()
	svc, impl, err := carrental.New(carrental.WithTariff(carrental.Tariff{"VW_Golf": 70}))
	if err != nil {
		return err
	}
	if err := providerNode.Host("IsarCars", svc); err != nil {
		return err
	}
	if _, err := providerNode.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		return err
	}
	defer providerNode.Close()
	providerRef := providerNode.MustRefFor("IsarCars")

	providerSID := impl.SID().Clone()
	providerSID.ServiceName = "IsarCars"
	munichTC, err := trader.DialTrader(ctx, providerNode.Pool(), munich.node.MustRefFor(trader.ServiceName))
	if err != nil {
		return err
	}
	munichBC, err := browser.DialBrowser(ctx, providerNode.Pool(), munich.node.MustRefFor(browser.ServiceName))
	if err != nil {
		return err
	}
	if _, err := carrental.Publish(ctx, providerSID, providerRef, munichBC, munichTC); err != nil {
		return err
	}
	fmt.Println("== IsarCars published in munich only:", providerRef)

	// --- A Hamburg client imports with and without a hop budget.
	hamburgTC, err := trader.DialTrader(ctx, hamburg.node.Pool(), hamburg.node.MustRefFor(trader.ServiceName))
	if err != nil {
		return err
	}
	local, err := hamburgTC.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil {
		return err
	}
	fmt.Printf("\n== hamburg import, hop limit 0: %d offers (munich invisible)\n", len(local))

	federated, err := hamburgTC.Import(ctx, trader.NewImport("CarRentalService", trader.Hops(1)))
	if err != nil {
		return err
	}
	fmt.Printf("== hamburg import, hop limit 1: %d offer(s):\n", len(federated))
	for _, o := range federated {
		fmt.Printf("   %-12s %-20s %s\n", o.ID, o.Type, o.Ref)
	}

	// --- The same discovery via the browser cascade.
	gc := genclient.New(wire.NewPool())
	entries, err := gc.Browse(ctx, hamburg.node.MustRefFor(browser.ServiceName), "browser")
	if err != nil {
		return err
	}
	fmt.Printf("\n== hamburg browser lists %d cascaded browser(s)\n", len(entries))
	remote, err := gc.Browse(ctx, entries[0].Ref, "rent")
	if err != nil {
		return err
	}
	fmt.Printf("== following the cascade to munich finds: %s at %s\n", remote[0].Name, remote[0].Ref)

	// --- Bind through whichever path and book.
	binding, err := gc.Bind(ctx, federated[0].Ref)
	if err != nil {
		return err
	}
	if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "VW_Golf",
		"SelectCar.selection.days":  "2",
	}); err != nil {
		return err
	}
	res, err := binding.Invoke(ctx, "Commit")
	if err != nil {
		return err
	}
	confirmation, _ := res.Value.Field("confirmation")
	fmt.Println("\n== booked across domains:", confirmation.Str)
	return nil
}
