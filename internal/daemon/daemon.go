// Package daemon is the skeleton the COSM daemons (traderd, browserd,
// namesrvd, carrentald) share: Main is their main function, Flags their
// common flags, Flags.Serve the node they stand up — admission control,
// instrumentation, the journal's drain-time sync, the metrics endpoint —
// and Flags.Drain the SIGTERM sequence. A daemon keeps only what differs:
// its own flags, its services, what it deregisters. Every daemon exposes
// the same knobs —
//
//	-max-inflight   bound on concurrently served requests
//	-max-queue      admission queue beyond that bound
//	-queue-wait     cap on one request's queueing time
//	-drain-timeout  grace period for in-flight work on shutdown
//	-metrics-addr   HTTP introspection endpoint (/metrics, /debug/vars,
//	                /healthz); empty disables it
//	-data-dir       write-ahead journal directory; empty keeps the
//	                daemon's state in memory only
//	-fsync          journal fsync policy: always, interval or never
//	-compact-every  journal records between snapshot compactions
//	-trace-buffer   flight-recorder span capacity (0 disables spans)
//	-event-buffer   cluster event timeline capacity (0 disables it)
//	-slow-ms        slow-request watchdog threshold (0 disables it)
//	-pprof          expose net/http/pprof on -metrics-addr
//
// — so operators tune one vocabulary across the whole market.
package daemon

import (
	"context"
	"errors"
	"flag"
	"log"
	"os"
	"os/signal"
	"syscall"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/journal"
	"cosm/internal/obs"
	"cosm/internal/wire"
)

// Main is a daemon's main function: it prefixes the process log with
// name, runs the daemon on the command line until SIGINT/SIGTERM, and
// exits non-zero when run fails. run blocks until sig delivers or closes.
func Main(name string, run func(args []string, sig <-chan os.Signal) error) {
	log.SetFlags(log.LstdFlags)
	log.SetPrefix(name + ": ")
	sig := make(chan os.Signal, 1)
	signal.Notify(sig, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], sig); err != nil {
		log.Fatal(err)
	}
}

// Flags are the shared daemon tuning knobs, registered by Register.
type Flags struct {
	MaxInFlight  int
	MaxQueue     int
	QueueWait    time.Duration
	DrainTimeout time.Duration
	MetricsAddr  string

	DataDir      string
	FsyncMode    string
	CompactEvery int

	TraceBuffer int
	EventBuffer int
	SlowMS      int
	Pprof       bool

	// Registry collects the daemon's metrics; NodeOptions instruments
	// the node against it and Introspection serves it. Populated by
	// Register.
	Registry *obs.Registry

	// NodeName labels this daemon's timeline events (defaults to the
	// process's metrics address; daemons with a better identity — a
	// trader ID — overwrite it before calling Spans/Events).
	NodeName string

	// spans/events are built lazily by Spans/Events: buffer sizes are
	// only known after flag.Parse.
	spansOnce  bool
	spans      *obs.SpanRecorder
	eventsOnce bool
	events     *obs.EventLog
}

// Register installs the shared flags on fs with the common defaults
// (admission control off, 10s drain, no metrics endpoint, no journal).
func Register(fs *flag.FlagSet) *Flags {
	f := &Flags{Registry: obs.NewRegistry()}
	fs.IntVar(&f.MaxInFlight, "max-inflight", 0, "max concurrently served requests (0 = unlimited)")
	fs.IntVar(&f.MaxQueue, "max-queue", 0, "admission queue length beyond max-inflight")
	fs.DurationVar(&f.QueueWait, "queue-wait", 100*time.Millisecond, "max time a request may queue for admission")
	fs.DurationVar(&f.DrainTimeout, "drain-timeout", 10*time.Second, "grace period for in-flight requests on shutdown")
	fs.StringVar(&f.MetricsAddr, "metrics-addr", "", "serve /metrics, /debug/vars and /healthz on this address (empty = off)")
	fs.StringVar(&f.DataDir, "data-dir", "", "journal market state into this directory and recover from it on boot (empty = in-memory only)")
	fs.StringVar(&f.FsyncMode, "fsync", "interval", "journal fsync policy: always (sync every append), interval (background sync) or never")
	fs.IntVar(&f.CompactEvery, "compact-every", 4096, "fold the journal into a snapshot every N records (0 = only on demand)")
	fs.IntVar(&f.TraceBuffer, "trace-buffer", 4096, "flight-recorder span buffer capacity; /debug/traces (0 = off)")
	fs.IntVar(&f.EventBuffer, "event-buffer", 1024, "cluster event timeline capacity; /debug/events (0 = off)")
	fs.IntVar(&f.SlowMS, "slow-ms", 0, "promote requests slower than this many milliseconds into slow_request log lines (0 = off)")
	fs.BoolVar(&f.Pprof, "pprof", false, "expose net/http/pprof under /debug/pprof on -metrics-addr")
	return f
}

// Spans returns the daemon's flight recorder, built on first use from
// -trace-buffer (nil — recording disabled — when 0). Call only after
// flag.Parse.
func (f *Flags) Spans() *obs.SpanRecorder {
	if !f.spansOnce {
		f.spansOnce = true
		f.spans = obs.NewSpanRecorder(f.TraceBuffer)
		f.spans.Instrument(f.Registry)
	}
	return f.spans
}

// Events returns the daemon's cluster event timeline, built on first
// use from -event-buffer (nil when 0). Call only after flag.Parse.
func (f *Flags) Events() *obs.EventLog {
	if !f.eventsOnce {
		f.eventsOnce = true
		name := f.NodeName
		if name == "" {
			name = f.MetricsAddr
		}
		f.events = obs.NewEventLog(name, f.EventBuffer)
		f.events.Instrument(f.Registry)
	}
	return f.events
}

// OpenJournal opens the daemon's write-ahead journal under -data-dir,
// instrumented against the daemon's registry. With an empty -data-dir
// it returns (nil, nil): journaling is off, and a nil *journal.Journal
// is safe to Close and Sync.
func (f *Flags) OpenJournal() (*journal.Journal, error) {
	if f.DataDir == "" {
		return nil, nil
	}
	policy, err := journal.ParseFsync(f.FsyncMode)
	if err != nil {
		return nil, err
	}
	return journal.Open(f.DataDir, journal.Options{
		Fsync:        policy,
		CompactEvery: f.CompactEvery,
		Metrics:      f.Registry,
	})
}

// NodeOptions converts the flags into cosm.NewNode options: admission
// control plus wire-level instrumentation against the daemon's
// registry and the structured logger l (nil for plain logging).
func (f *Flags) NodeOptions(l *obs.Logger) []cosm.NodeOption {
	opts := []cosm.NodeOption{
		cosm.WithNodeAdmission(wire.AdmissionPolicy{
			MaxInFlight: f.MaxInFlight,
			MaxQueue:    f.MaxQueue,
			QueueWait:   f.QueueWait,
		}),
		cosm.WithNodeMetrics(f.Registry),
	}
	if l != nil {
		opts = append(opts, cosm.WithNodeLogger(l))
	}
	if rec := f.Spans(); rec != nil {
		opts = append(opts, cosm.WithNodeRecorder(rec))
	}
	if ev := f.Events(); ev != nil {
		opts = append(opts, cosm.WithNodeEvents(ev))
	}
	if f.SlowMS > 0 {
		opts = append(opts, cosm.WithNodeSlowThreshold(time.Duration(f.SlowMS)*time.Millisecond))
	}
	return opts
}

// Serve stands the daemon's node up: built from NodeOptions (logging
// through l's "wire" child), hosting services by name, listening on the
// listen endpoint, with the introspection endpoint beside it answering
// /healthz 503 once the node drains. A non-nil j gets its final
// flush+fsync after the drain, before connections close, so state
// written by requests served during the drain is durable. stop closes
// the endpoint and the node.
func (f *Flags) Serve(listen string, l *obs.Logger, j *journal.Journal, services map[string]*cosm.Service) (*cosm.Node, func(), error) {
	node := cosm.NewNode(f.NodeOptions(l.With("wire"))...)
	fail := func(err error) (*cosm.Node, func(), error) {
		_ = node.Close()
		return nil, nil, err
	}
	if j != nil {
		node.OnDrain(func() {
			if err := j.Sync(); err != nil {
				log.Printf("journal sync on drain: %v", err)
			}
		})
	}
	for name, svc := range services {
		if err := node.Host(name, svc); err != nil {
			return fail(err)
		}
	}
	if _, err := node.ListenAndServe(listen); err != nil {
		return fail(err)
	}
	intro, err := f.Introspection(func() error {
		if node.Draining() {
			return errors.New("draining")
		}
		return nil
	})
	if err != nil {
		return fail(err)
	}
	if intro != nil {
		log.Printf("metrics at http://%s/metrics", intro.Addr())
	}
	return node, func() { _ = intro.Close(); _ = node.Close() }, nil
}

// Introspection starts the daemon's metrics endpoint when -metrics-addr
// was given, serving the daemon's registry; healthy reports readiness
// for /healthz (typically the node's drain state) and may be nil. It
// returns nil (without error) when the endpoint is disabled; the
// returned server is nil-safe to Close.
func (f *Flags) Introspection(healthy func() error) (*obs.Introspection, error) {
	if f.MetricsAddr == "" {
		return nil, nil
	}
	return obs.ServeIntrospection(f.MetricsAddr, f.Registry, healthy, obs.MuxConfig{
		Spans:  f.Spans(),
		Events: f.Events(),
		Pprof:  f.Pprof,
	})
}

// Drain performs the graceful-shutdown sequence: deregister first (so
// clients fail over to live providers instead of a draining endpoint),
// then drain the node under the configured timeout. deregister may be
// nil; its error is reported but does not abort the drain — a dead
// registry must not prevent local cleanup.
func (f *Flags) Drain(node *cosm.Node, deregister func(ctx context.Context) error, logf func(format string, args ...any)) error {
	ctx, cancel := context.WithTimeout(context.Background(), f.DrainTimeout)
	defer cancel()
	if deregister != nil {
		if err := deregister(ctx); err != nil {
			logf("deregistration: %v", err)
		}
	}
	return node.Shutdown(ctx)
}
