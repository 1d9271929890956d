package main

import (
	"context"
	"io"
	"log"
	"os"
	"testing"
	"time"

	"cosm/internal/browser"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

// startInfra hosts a browser and a trader for the daemon to publish to.
func startInfra(t *testing.T, loopName string) (browserRef, traderRef ref.ServiceRef) {
	t.Helper()
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	bsvc, err := browser.NewService(browser.NewDirectory())
	if err != nil {
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
	tsvc, err := trader.NewService(trader.New("infra", repo))
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(browser.ServiceName, bsvc); err != nil {
		t.Fatal(err)
	}
	if err := node.Host(trader.ServiceName, tsvc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node.MustRefFor(browser.ServiceName), node.MustRefFor(trader.ServiceName)
}

func TestDaemonPublishesAndBooks(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	browserRef, traderRef := startInfra(t, "carrentald-infra")

	sig := make(chan os.Signal)
	done := make(chan error, 1)
	go func() {
		done <- run([]string{
			"-listen", "loop:carrentald-test",
			"-browser", browserRef.String(),
			"-trader", traderRef.String(),
		}, sig)
	}()
	// A failed test stops its daemon too, so no later run finds the
	// endpoint taken.
	stopped := false
	t.Cleanup(func() {
		if !stopped {
			close(sig)
			<-done
		}
	})

	pool := wire.NewPool()
	defer pool.Close()
	ctx := context.Background()
	carRef := ref.New("loop:carrentald-test", "CarRentalService")

	bc, err := browser.DialBrowser(ctx, pool, browserRef)
	if err != nil {
		t.Fatal(err)
	}
	tc, err := trader.DialTrader(ctx, pool, traderRef)
	if err != nil {
		t.Fatal(err)
	}
	// The daemon serves before it publishes, so that its offer never
	// names an endpoint that is not up yet: wait for the publication on
	// both paths, then verify it.
	var (
		entries []browser.Entry
		offer   *trader.Offer
	)
	deadline := time.Now().Add(5 * time.Second)
	for {
		entries, err = bc.Search(ctx, "car")
		if err == nil && len(entries) > 0 {
			if offer, err = trader.ImportOne(ctx, tc, trader.NewImport("CarRentalService")); err == nil {
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatalf("daemon never published: browser entries = %v, trader offer = %+v, last error %v", entries, offer, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if len(entries) != 1 || entries[0].Ref != carRef {
		t.Fatalf("browser entries = %v, %v", entries, err)
	}
	if offer.Ref != carRef {
		t.Fatalf("trader offer = %+v, %v", offer, err)
	}

	// Book a car through the generic client.
	gc := genclient.New(pool)
	binding, err := gc.Bind(ctx, carRef)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "FIAT_Uno",
		"SelectCar.selection.days":  "1",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := binding.Invoke(ctx, "Commit"); err != nil {
		t.Fatal(err)
	}

	close(sig)
	stopped = true
	if err := <-done; err != nil {
		t.Fatal(err)
	}

	// Shutdown deregisters: the browser entry and the trader offer are
	// withdrawn, so new importers are routed to other providers.
	if entries, _ := bc.Search(ctx, "car"); len(entries) != 0 {
		t.Fatalf("browser entries after shutdown = %v", entries)
	}
	if _, err := trader.ImportOne(ctx, tc, trader.NewImport("CarRentalService")); err == nil {
		t.Fatal("trader offer must be withdrawn after shutdown")
	}
}

func TestDaemonErrors(t *testing.T) {
	log.SetOutput(io.Discard)
	defer log.SetOutput(os.Stderr)
	if err := run([]string{"-listen", "junk"}, nil); err == nil {
		t.Fatal("bad endpoint must fail")
	}
	if err := run([]string{"-listen", "loop:carrentald-badbrw", "-browser", "junk"}, nil); err == nil {
		t.Fatal("bad browser ref must fail")
	}
	if err := run([]string{"-listen", "loop:carrentald-badtrd", "-trader", "junk"}, nil); err == nil {
		t.Fatal("bad trader ref must fail")
	}
	if err := run([]string{"-listen", "loop:carrentald-ghost", "-browser", "cosm://loop:ghost/cosm.browser"}, nil); err == nil {
		t.Fatal("unreachable browser must fail")
	}
}
