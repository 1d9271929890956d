// Command namesrvd runs the name server and group manager of the COSM
// service-support level (Fig. 6) as one daemon.
//
// Usage:
//
//	namesrvd -listen tcp:127.0.0.1:7000
//
// The shared daemon flags (see internal/daemon) apply: -metrics-addr
// serves /metrics, /debug/vars, /debug/traces (flight-recorder spans)
// and /debug/events; -pprof adds net/http/pprof alongside them.
package main

import (
	"flag"
	"log"
	"os"

	"cosm/internal/cosm"
	"cosm/internal/daemon"
	"cosm/internal/naming"
	"cosm/internal/obs"
)

func main() { daemon.Main("namesrvd", run) }

// run starts the daemon and blocks until sig delivers or closes.
func run(args []string, sig <-chan os.Signal) error {
	fs := flag.NewFlagSet("namesrvd", flag.ContinueOnError)
	listen := fs.String("listen", "tcp:127.0.0.1:7000", "endpoint to serve on (tcp:host:port or loop:name)")
	df := daemon.Register(fs)
	if err := fs.Parse(args); err != nil {
		return err
	}

	nameSvc, err := naming.NewService(naming.NewRegistry())
	if err != nil {
		return err
	}
	groupSvc, err := naming.NewGroupService(naming.NewGroups())
	if err != nil {
		return err
	}
	node, stop, err := df.Serve(*listen, obs.NewLogger(os.Stderr, "namesrvd"), nil, map[string]*cosm.Service{
		naming.ServiceName:      nameSvc,
		naming.GroupServiceName: groupSvc,
	})
	if err != nil {
		return err
	}
	defer stop()

	log.Printf("name server at %s", node.MustRefFor(naming.ServiceName))
	log.Printf("group manager at %s", node.MustRefFor(naming.GroupServiceName))
	s := <-sig
	log.Printf("received %v, draining", s)
	return df.Drain(node, nil, log.Printf)
}
