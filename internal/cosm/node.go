package cosm

import (
	"context"
	"errors"
	"fmt"
	"time"

	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/wire"
)

// ErrNotServing is returned by reference-producing methods before the
// node has a bound endpoint.
var ErrNotServing = errors.New("cosm: node is not serving yet")

// Node is one participant in the open service market: a wire server
// hosting any number of SID-described services, plus a client pool for
// outbound bindings. Traders, browsers, name servers and application
// servers are all services hosted on Nodes.
type Node struct {
	server *wire.Server
	pool   *wire.Pool
}

// nodeConfig accumulates options so they compose (a log option and an
// admission option must both reach the one wire.Server).
type nodeConfig struct {
	serverOpts []wire.ServerOption
	poolOpts   []wire.PoolOption
}

// NodeOption configures a Node.
type NodeOption func(*nodeConfig)

// WithNodeLog directs wire-level diagnostics to logf.
func WithNodeLog(logf func(format string, args ...any)) NodeOption {
	return func(c *nodeConfig) {
		c.serverOpts = append(c.serverOpts, wire.WithServerLog(logf))
	}
}

// WithNodeLogger routes the node's wire server through the structured
// logger l (per-request access log with trace IDs, panic stacks; see
// wire.WithServerLogger).
func WithNodeLogger(l *obs.Logger) NodeOption {
	return func(c *nodeConfig) {
		c.serverOpts = append(c.serverOpts, wire.WithServerLogger(l))
	}
}

// WithNodeAdmission bounds the node's inbound concurrency (see
// wire.AdmissionPolicy): beyond the limits the node sheds requests with
// wire.StatusOverloaded instead of accumulating unbounded goroutines.
func WithNodeAdmission(p wire.AdmissionPolicy) NodeOption {
	return func(c *nodeConfig) {
		c.serverOpts = append(c.serverOpts, wire.WithAdmission(p))
	}
}

// WithNodeMetrics instruments both directions of the node's wire layer
// against reg: inbound server families (cosm_server_*) and outbound
// pool families (cosm_client_*). A nil reg disables instrumentation.
func WithNodeMetrics(reg *obs.Registry) NodeOption {
	return func(c *nodeConfig) {
		c.serverOpts = append(c.serverOpts, wire.WithServerMetrics(reg))
		c.poolOpts = append(c.poolOpts, wire.WithPoolMetrics(reg))
	}
}

// WithNodeRecorder attaches the flight recorder to both directions of
// the node's wire layer: outbound calls record client-kind spans,
// inbound handled requests record server-kind spans, and the shared
// trace IDs let obs.BuildSpanTree reassemble a federated request into
// one tree. A nil r records nothing and costs nothing.
func WithNodeRecorder(r *obs.SpanRecorder) NodeOption {
	return func(c *nodeConfig) {
		c.serverOpts = append(c.serverOpts, wire.WithServerRecorder(r))
		c.poolOpts = append(c.poolOpts, wire.WithPoolRecorder(r))
	}
}

// WithNodeEvents feeds wire-layer lifecycle events (circuit-breaker
// transitions) into the node's cluster event timeline.
func WithNodeEvents(ev *obs.EventLog) NodeOption {
	return func(c *nodeConfig) {
		c.poolOpts = append(c.poolOpts, wire.WithPoolEvents(ev))
	}
}

// WithNodeSlowThreshold arms the server-side slow-request watchdog (see
// wire.WithSlowThreshold). 0 disables it.
func WithNodeSlowThreshold(d time.Duration) NodeOption {
	return func(c *nodeConfig) {
		c.serverOpts = append(c.serverOpts, wire.WithSlowThreshold(d))
	}
}

// WithNodePool applies extra options to the node's outbound pool
// (dialers, call policies — the fault-injecting harnesses plug in
// here).
func WithNodePool(opts ...wire.PoolOption) NodeOption {
	return func(c *nodeConfig) {
		c.poolOpts = append(c.poolOpts, opts...)
	}
}

// NewNode returns a node with no services.
func NewNode(opts ...NodeOption) *Node {
	var cfg nodeConfig
	for _, o := range opts {
		o(&cfg)
	}
	return &Node{
		server: wire.NewServer(cfg.serverOpts...),
		pool:   wire.NewPool(cfg.poolOpts...),
	}
}

// Host registers a service under a name on this node. The name is the
// service component of references to it; by convention it equals the
// SID's service name for application services and a well-known
// "cosm.<role>" name for infrastructure services.
func (n *Node) Host(name string, svc *Service) error {
	if svc == nil {
		return ErrNilService
	}
	return n.server.Register(name, wire.HandlerFunc(svc.serveCOSM))
}

// ListenAndServe binds the node to an endpoint ("tcp:host:port" or
// "loop:name") and starts serving. It returns the bound endpoint.
func (n *Node) ListenAndServe(endpoint string) (string, error) {
	return n.server.ListenAndServe(endpoint)
}

// Endpoint returns the node's bound endpoint ("" before ListenAndServe).
func (n *Node) Endpoint() string { return n.server.Endpoint() }

// RefFor returns the globally identifying reference for a service hosted
// on this node.
func (n *Node) RefFor(serviceName string) (ref.ServiceRef, error) {
	ep := n.Endpoint()
	if ep == "" {
		return ref.ServiceRef{}, ErrNotServing
	}
	return ref.New(ep, serviceName), nil
}

// MustRefFor is RefFor for static wiring; it panics before serving.
func (n *Node) MustRefFor(serviceName string) ref.ServiceRef {
	r, err := n.RefFor(serviceName)
	if err != nil {
		panic(err)
	}
	return r
}

// Pool exposes the node's outbound connection pool (shared by all Conns
// the node opens).
func (n *Node) Pool() *wire.Pool { return n.pool }

// OnDrain registers fn to run during Shutdown after in-flight requests
// have drained and before connections close (see wire.Server.OnDrain).
// Daemons hook their journal's final flush+fsync here.
func (n *Node) OnDrain(fn func()) { n.server.OnDrain(fn) }

// ServerStats returns the node's inbound overload counters.
func (n *Node) ServerStats() wire.ServerStats { return n.server.Stats() }

// Draining reports whether the node is shedding inbound work because a
// Shutdown is in progress (the daemons' /healthz check).
func (n *Node) Draining() bool { return n.server.Draining() }

// Shutdown drains the node gracefully: new inbound requests are shed,
// in-flight handlers finish under ctx's deadline, and then everything —
// listener, inbound connections, pooled outbound connections — is torn
// down. Deregistration (withdrawing offers, SIDs) is the caller's job
// and must happen *before* Shutdown so clients fail over instead of
// finding a draining endpoint.
func (n *Node) Shutdown(ctx context.Context) error {
	err := n.server.Shutdown(ctx)
	if perr := n.pool.Close(); err == nil {
		err = perr
	}
	if err != nil {
		return fmt.Errorf("cosm: shutdown node: %w", err)
	}
	return nil
}

// Close shuts the node down immediately: the listener, all inbound
// connections (their in-flight work is cancelled), all pooled outbound
// connections. Use Shutdown for a graceful drain.
func (n *Node) Close() error {
	err := n.server.Close()
	if perr := n.pool.Close(); err == nil {
		err = perr
	}
	if err != nil {
		return fmt.Errorf("cosm: close node: %w", err)
	}
	return nil
}
