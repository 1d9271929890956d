// Command carrentald runs the paper's running example: the remote car
// rental server, published via browser mediation and/or trader export.
//
// Usage:
//
//	carrentald -listen tcp:127.0.0.1:7010 \
//	           -browser cosm://tcp:127.0.0.1:7002/cosm.browser \
//	           -trader  cosm://tcp:127.0.0.1:7001/cosm.trader
//
// On SIGINT/SIGTERM the daemon deregisters first (withdraws its trader
// offer and browser entry, so clients fail over to other providers)
// and then drains: in-flight rentals finish under -drain-timeout.
//
// The shared daemon flags (see internal/daemon) include the flight
// recorder: a rental session traced end to end appears under
// /debug/traces here as the server-side spans of the importer's trace.
package main

import (
	"context"
	"flag"
	"log"
	"os"

	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/daemon"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/trader"
)

func main() { daemon.Main("carrentald", run) }

// run starts the daemon and blocks until sig delivers or closes.
func run(args []string, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("carrentald", flag.ContinueOnError)
	var (
		listen     = fs.String("listen", "tcp:127.0.0.1:7010", "endpoint to serve on")
		browserRef = fs.String("browser", "", "browser reference to register the SID at (mediation path)")
		traderRef  = fs.String("trader", "", "trader reference to export the offer at (trading path)")
		name       = fs.String("name", "CarRentalService", "service name to host under")
	)
	df := daemon.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	svc, impl, err := carrental.New()
	if err != nil {
		return err
	}
	node, stop, err := df.Serve(*listen, obs.NewLogger(os.Stderr, "carrentald"), nil, map[string]*cosm.Service{*name: svc})
	if err != nil {
		return err
	}
	defer stop()
	self := node.MustRefFor(*name)
	ctx := context.Background()

	var bc *browser.Client
	if *browserRef != "" {
		r, err := ref.Parse(*browserRef)
		if err != nil {
			return err
		}
		if bc, err = browser.DialBrowser(ctx, node.Pool(), r); err != nil {
			return err
		}
	}
	var tc *trader.Client
	if *traderRef != "" {
		r, err := ref.Parse(*traderRef)
		if err != nil {
			return err
		}
		if tc, err = trader.DialTrader(ctx, node.Pool(), r); err != nil {
			return err
		}
	}
	pub, err := carrental.Publish(ctx, impl.SID(), self, bc, tc)
	if err != nil {
		return err
	}

	log.Printf("car rental serving at %s (browser=%v trader=%v)", self, bc != nil, tc != nil)
	s := <-sig
	log.Printf("received %v: %d bookings served, draining", s, impl.Bookings())

	// Deregister before draining: once the offer and browser entry are
	// gone, new importers bind elsewhere while in-flight rentals finish.
	return df.Drain(node, pub.Unpublish, log.Printf)
}
