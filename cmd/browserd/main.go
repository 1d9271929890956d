// Command browserd runs a COSM browser daemon: the mediation directory
// of Fig. 4 as a network service.
//
// Usage:
//
//	browserd -listen tcp:127.0.0.1:7002
//	browserd -listen tcp:127.0.0.1:7003 -parent cosm://tcp:127.0.0.1:7002/cosm.browser
//
// With -parent, the browser registers its own SID at another browser,
// forming the browser cascade of section 3.2.
//
// The shared daemon flags (see internal/daemon) include the flight
// recorder: with -metrics-addr set, /debug/traces shows recent and
// slowest request trees — a cascaded lookup's spans link across every
// browser it touched — and -slow-ms promotes slow requests into
// structured log lines carrying their trace ID.
package main

import (
	"context"
	"flag"
	"log"
	"os"
	"time"

	"cosm/internal/browser"
	"cosm/internal/cosm"
	"cosm/internal/daemon"
	"cosm/internal/obs"
	"cosm/internal/ref"
)

func main() { daemon.Main("browserd", run) }

// run starts the daemon and blocks until sig delivers or closes.
func run(args []string, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("browserd", flag.ContinueOnError)
	var (
		listen = fs.String("listen", "tcp:127.0.0.1:7002", "endpoint to serve on (tcp:host:port or loop:name)")
		parent = fs.String("parent", "", "parent browser reference cosm://endpoint/service to register at")
	)
	df := daemon.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	logger := obs.NewLogger(os.Stderr, "browserd")
	dir := browser.NewDirectory(
		browser.WithDirectoryLogger(logger.With("browser")),
		browser.WithDirectoryMetrics(df.Registry))

	// Recovery happens before the node listens: by the time the first
	// connection is accepted the directory is the pre-crash one.
	j, err := df.OpenJournal()
	if err != nil {
		return err
	}
	defer j.Close()
	if j != nil {
		start := time.Now()
		if err := j.Recover(dir); err != nil {
			return err
		}
		log.Printf("recovered %d registrations from %s in %v", dir.Len(), df.DataDir, time.Since(start))
	}

	svc, err := browser.NewService(dir)
	if err != nil {
		return err
	}
	node, stop, err := df.Serve(*listen, logger, j, map[string]*cosm.Service{browser.ServiceName: svc})
	if err != nil {
		return err
	}
	defer stop()
	self := node.MustRefFor(browser.ServiceName)

	// In a cascade, deregister withdraws this browser's SID from the
	// parent so cascaded lookups stop routing here during the drain.
	var deregister func(context.Context) error
	if *parent != "" {
		ctx := context.Background()
		parentRef, err := ref.Parse(*parent)
		if err != nil {
			return err
		}
		pc, err := browser.DialBrowser(ctx, node.Pool(), parentRef)
		if err != nil {
			return err
		}
		if err := pc.RegisterSID(ctx, svc.SID(), self); err != nil {
			return err
		}
		log.Printf("registered own SID at parent %s", parentRef)
		name := svc.SID().ServiceName
		deregister = func(ctx context.Context) error { return pc.Withdraw(ctx, name) }
	}

	log.Printf("browser serving at %s", self)
	s := <-sig
	log.Printf("received %v, draining", s)
	return df.Drain(node, deregister, log.Printf)
}
