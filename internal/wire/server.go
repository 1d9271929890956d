package wire

import (
	"context"
	"errors"
	"fmt"
	"log"
	"net"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/obs"
)

// Handler executes one operation of one service. Implementations are
// invoked concurrently. ctx carries the caller's propagated deadline
// (if the request frame had one) and is cancelled when the caller
// abandons the call, the connection breaks, or the server shuts down;
// long-running handlers should honour it. The returned response's Body
// is opaque to the wire layer. A Handler must not retain req.Body past
// its return.
type Handler interface {
	ServeCOSM(ctx context.Context, remote string, req *Request) *Response
}

// HandlerFunc adapts a function to the Handler interface.
type HandlerFunc func(ctx context.Context, remote string, req *Request) *Response

// ServeCOSM calls f.
func (f HandlerFunc) ServeCOSM(ctx context.Context, remote string, req *Request) *Response {
	return f(ctx, remote, req)
}

// Server registration errors.
var (
	ErrServiceExists = errors.New("wire: service already registered")
	ErrServerClosed  = errors.New("wire: server closed")
)

// AdmissionPolicy bounds the work a Server accepts — the overload
// protection of the market's hotspots (trader, browser). A server
// beyond its limits sheds requests with StatusOverloaded instead of
// accumulating unbounded goroutines, so admitted requests keep bounded
// latency while excess load fails fast and backs off client-side.
type AdmissionPolicy struct {
	// MaxInFlight caps concurrently executing handlers across the whole
	// server; 0 means unlimited (no admission control at all).
	MaxInFlight int
	// MaxQueue caps requests waiting for an in-flight slot (FIFO);
	// beyond it requests are shed immediately. 0 means no queue: a
	// saturated server sheds at once.
	MaxQueue int
	// QueueWait caps how long one request may wait for admission; a
	// request that queues longer is shed. It is also the backoff hint
	// attached to shed responses. 0 applies a default of 100ms.
	QueueWait time.Duration
}

const defaultQueueWait = 100 * time.Millisecond

func (p AdmissionPolicy) queueWait() time.Duration {
	if p.QueueWait > 0 {
		return p.QueueWait
	}
	return defaultQueueWait
}

// ServerStats counts overload-protection events across a Server's
// lifetime (monotonic, goroutine-safe).
type ServerStats struct {
	// Served counts requests whose handler ran to completion.
	Served uint64
	// Shed counts requests rejected with StatusOverloaded.
	Shed uint64
	// Expired counts requests rejected with StatusDeadlineExpired
	// before their handler ran.
	Expired uint64
	// Panics counts handler panics converted into StatusAppError.
	Panics uint64
}

// Server hosts named services behind one listener. One server instance
// corresponds to one COSM "node": the trader, browser, name server and
// application services of the prototype are all Handlers registered at a
// Server. The zero value is not usable; call NewServer.
type Server struct {
	logf      func(format string, args ...any)
	log       *obs.Logger
	m         serverMetrics
	rec       *obs.SpanRecorder
	slow      time.Duration // slow-request watchdog threshold (0 = off)
	slowLast  atomic.Int64  // UnixNano of the last watchdog log line (sampling)
	admission AdmissionPolicy

	// sem holds one token per executing handler when MaxInFlight > 0.
	sem    chan struct{}
	queued atomic.Int64

	served  atomic.Uint64
	shed    atomic.Uint64
	expired atomic.Uint64
	panics  atomic.Uint64

	// baseCtx parents every request context; baseCancel fires on Close
	// so abandoned handlers observe the shutdown.
	baseCtx    context.Context
	baseCancel context.CancelFunc

	mu       sync.Mutex
	services map[string]Handler
	ln       listener
	conns    map[net.Conn]bool
	closed   bool
	draining bool

	// drainHooks run once during Shutdown, after in-flight requests
	// have drained and before connections close — the point where
	// durable state written during the drain can be flushed and synced.
	drainHooks []func()
	drainOnce  sync.Once

	wg sync.WaitGroup
	// inflight tracks dispatched requests (queued or executing);
	// Shutdown waits for it before tearing connections down.
	inflight sync.WaitGroup
}

// ServerOption configures a Server.
type ServerOption func(*Server)

// WithServerLog directs server diagnostics to logf (default: log.Printf
// for connection-level errors only).
func WithServerLog(logf func(format string, args ...any)) ServerOption {
	return func(s *Server) { s.logf = logf }
}

// WithAdmission bounds the server's concurrent work (see
// AdmissionPolicy). Without this option the server admits everything,
// preserving the pre-overload-protection behaviour.
func WithAdmission(p AdmissionPolicy) ServerOption {
	return func(s *Server) { s.admission = p }
}

// WithServerLogger routes the server's diagnostics through the
// structured logger l and enables the per-request access log: every
// handled request emits one event=rpc line carrying the request's
// trace ID, op, status and duration — the line that lets an operator
// grep one trace across every daemon it touched. Panic stacks go
// through l too. A nil l is a no-op.
func WithServerLogger(l *obs.Logger) ServerOption {
	return func(s *Server) {
		if l == nil {
			return
		}
		s.log = l
		s.logf = l.Sink()
	}
}

// WithServerMetrics records request latency by op, responses by
// status, admission queue waits, sheds, expiries and panics into reg's
// cosm_server_* families. A nil reg disables recording.
func WithServerMetrics(reg *obs.Registry) ServerOption {
	return func(s *Server) { s.m = bindServerMetrics(reg) }
}

// WithServerRecorder attaches the flight recorder: every traced request
// records one server-kind span (op, remote, status, duration, parented
// at the caller's span) into r. Untraced requests — callers that sent
// no trace metadata — record nothing. A nil r costs nothing.
func WithServerRecorder(r *obs.SpanRecorder) ServerOption {
	return func(s *Server) { s.rec = r }
}

// WithSlowThreshold arms the slow-request watchdog: a handled request
// whose duration reaches d is counted and — sampled to at most one line
// per second — promoted into a structured "slow_request" log line
// carrying its trace ID, so an operator can jump from the symptom
// straight to `cosmcli trace`. 0 disables the watchdog.
func WithSlowThreshold(d time.Duration) ServerOption {
	return func(s *Server) { s.slow = d }
}

// NewServer returns an empty server.
func NewServer(opts ...ServerOption) *Server {
	s := &Server{
		services: map[string]Handler{},
		conns:    map[net.Conn]bool{},
		logf:     func(format string, args ...any) { log.Printf(format, args...) },
	}
	s.baseCtx, s.baseCancel = context.WithCancel(context.Background())
	for _, o := range opts {
		o(s)
	}
	if s.admission.MaxInFlight > 0 {
		s.sem = make(chan struct{}, s.admission.MaxInFlight)
	}
	return s
}

// Stats returns a snapshot of the server's overload counters.
func (s *Server) Stats() ServerStats {
	return ServerStats{
		Served:  s.served.Load(),
		Shed:    s.shed.Load(),
		Expired: s.expired.Load(),
		Panics:  s.panics.Load(),
	}
}

// Register adds a named service. Registering a duplicate name is an
// error: service identity must be stable for the node's lifetime.
func (s *Server) Register(name string, h Handler) error {
	if name == "" || h == nil {
		return fmt.Errorf("wire: Register(%q) with empty name or nil handler", name)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, dup := s.services[name]; dup {
		return fmt.Errorf("%w: %q", ErrServiceExists, name)
	}
	s.services[name] = h
	return nil
}

// ListenAndServe creates a listener for endpoint, starts accepting
// connections on it and returns the bound endpoint (useful with
// ephemeral TCP ports) immediately. Close closes the listener.
func (s *Server) ListenAndServe(endpoint string) (string, error) {
	ln, err := listen(endpoint)
	if err != nil {
		return "", err
	}
	s.mu.Lock()
	switch {
	case s.closed:
		err = ErrServerClosed
	case s.ln != nil:
		err = errors.New("wire: server already serving")
	default:
		s.ln = ln
	}
	s.mu.Unlock()
	if err != nil {
		_ = ln.Close()
		return "", err
	}
	s.wg.Add(1)
	go s.acceptLoop(ln)
	return ln.Endpoint(), nil
}

// Endpoint returns the serving endpoint ("" before ListenAndServe).
func (s *Server) Endpoint() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ln == nil {
		return ""
	}
	return s.ln.Endpoint()
}

func (s *Server) acceptLoop(ln listener) {
	defer s.wg.Done()
	for {
		conn, err := ln.Accept()
		if err != nil {
			// Closed listener: quiet shutdown. Anything else is logged.
			if !errors.Is(err, net.ErrClosed) {
				s.logf("wire: accept: %v", err)
			}
			return
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			_ = conn.Close()
			return
		}
		s.conns[conn] = true
		s.mu.Unlock()

		s.wg.Add(1)
		go s.serveConn(conn)
	}
}

// connState is the per-connection request bookkeeping shared between the
// read loop and the per-request goroutines.
type connState struct {
	conn    net.Conn
	writeMu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	cancels map[uint64]context.CancelFunc
}

// register records the cancel func of an in-flight request so a cancel
// frame for its id can reach it.
func (cs *connState) register(id uint64, cancel context.CancelFunc) {
	cs.mu.Lock()
	cs.cancels[id] = cancel
	cs.mu.Unlock()
}

func (cs *connState) unregister(id uint64) {
	cs.mu.Lock()
	delete(cs.cancels, id)
	cs.mu.Unlock()
}

// cancel fires the cancel func registered for id, if any.
func (cs *connState) cancel(id uint64) {
	cs.mu.Lock()
	c := cs.cancels[id]
	cs.mu.Unlock()
	if c != nil {
		c()
	}
}

func (s *Server) serveConn(conn net.Conn) {
	defer s.wg.Done()
	defer func() {
		s.mu.Lock()
		delete(s.conns, conn)
		s.mu.Unlock()
		_ = conn.Close()
	}()

	remote := conn.RemoteAddr().String()
	cs := &connState{conn: conn, cancels: map[uint64]context.CancelFunc{}}
	// connCtx parents every request on this connection: a broken or
	// closed connection cancels all of its in-flight handlers.
	connCtx, connCancel := context.WithCancel(s.baseCtx)
	defer connCancel()
	var handlers sync.WaitGroup
	defer handlers.Wait()

	for {
		f, err := readFrame(conn)
		if err != nil {
			// EOF and closed-connection errors are normal client
			// departures; framing errors are worth a log line.
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooLarge) {
				s.logf("wire: %s: %v", remote, err)
			}
			return
		}
		switch f.ftype {
		case frameCancel:
			cs.cancel(f.id)
			continue
		case frameRequest:
		default:
			s.logf("wire: %s: unexpected frame type %d", remote, f.ftype)
			return
		}
		req, err := decodeRequest(f.payload)
		if err != nil {
			s.respond(cs, f.id, &Response{Status: StatusBadRequest, ErrMsg: err.Error()})
			continue
		}
		s.mu.Lock()
		h, ok := s.services[req.Service]
		draining := s.draining
		s.mu.Unlock()
		if !ok {
			s.respond(cs, f.id, &Response{Status: StatusNoService, ErrMsg: req.Service})
			continue
		}
		s.dispatch(connCtx, cs, &handlers, f, req, h, remote, draining)
	}
}

// dispatch applies deadline, drain and admission checks to one request
// and, when admitted, runs its handler in its own goroutine so one slow
// operation does not block the connection (the multiplexing that Sun
// RPC over TCP lacks, but DCE-style RPC provides). Shed and reject
// paths respond inline from the read loop: they do not spawn, so the
// goroutine population is bounded by MaxInFlight + MaxQueue.
func (s *Server) dispatch(connCtx context.Context, cs *connState, handlers *sync.WaitGroup, f frame, req *Request, h Handler, remote string, draining bool) {
	// Deadline propagation: the request context inherits the caller's
	// remaining budget, and is independently cancellable so a cancel
	// frame for this id can abort just this request. An already-expired
	// request is rejected before any queueing or handler work.
	var ctx context.Context
	var cancel context.CancelFunc
	if f.ttl > 0 {
		ctx, cancel = context.WithTimeout(connCtx, time.Duration(f.ttl)*time.Microsecond)
	} else {
		ctx, cancel = context.WithCancel(connCtx)
	}
	// Trace continuation: the handler context carries the caller's trace
	// ID under a fresh span parented at the caller's span, so every log
	// line this request produces — here and on further hops — shares one
	// trace ID.
	if f.traceID != "" {
		ctx = obs.WithTrace(ctx, obs.Trace{ID: f.traceID, Span: f.parentID}.Child())
	}
	// Error responses echo the trace ID so a caller holding only the
	// error text can still find the server-side footprint.
	echo := traceEcho(f.traceID)
	if ctx.Err() != nil || f.ttl == 1 {
		// A 1µs TTL is the stamp of a caller at (or past) its deadline.
		cancel()
		s.expired.Add(1)
		s.m.expired.Inc()
		s.respond(cs, f.id, &Response{Status: StatusDeadlineExpired, ErrMsg: req.Service + "/" + req.Op + echo})
		return
	}
	if draining {
		cancel()
		s.shedResponse(cs, f.id, "server draining"+echo)
		return
	}
	p := s.admission

	queueing := false
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}: // free slot: admit immediately
		default:
			if int(s.queued.Load()) >= p.MaxQueue {
				cancel()
				s.shedResponse(cs, f.id, "admission queue full"+echo)
				return
			}
			s.queued.Add(1)
			queueing = true
		}
	}

	s.inflight.Add(1)
	s.m.inflight.Add(1)
	handlers.Add(1)
	cs.register(f.id, cancel)
	go func(id uint64, req *Request, ctx context.Context) {
		defer handlers.Done()
		defer s.inflight.Done()
		defer s.m.inflight.Add(-1)
		defer cs.unregister(id)
		defer cancel()

		if queueing {
			// FIFO admission wait, bounded by the queue-time cap and
			// the request's own deadline: work nobody is waiting for
			// anymore must not occupy a slot.
			waitStart := time.Now()
			wait := time.NewTimer(p.queueWait())
			select {
			case s.sem <- struct{}{}:
				wait.Stop()
				s.m.queueWait.Observe(time.Since(waitStart).Seconds())
			case <-wait.C:
				s.queued.Add(-1)
				s.shedResponse(cs, id, "queue wait exceeded"+echo)
				return
			case <-ctx.Done():
				wait.Stop()
				s.queued.Add(-1)
				s.expired.Add(1)
				s.m.expired.Inc()
				s.respond(cs, id, &Response{Status: StatusDeadlineExpired, ErrMsg: req.Service + "/" + req.Op + echo})
				return
			}
			s.queued.Add(-1)
		}
		if s.sem != nil {
			defer func() { <-s.sem }()
		}
		// Re-check after queueing: the deadline may have expired while
		// waiting for a slot.
		if ctx.Err() != nil {
			s.expired.Add(1)
			s.m.expired.Inc()
			s.respond(cs, id, &Response{Status: StatusDeadlineExpired, ErrMsg: req.Service + "/" + req.Op + echo})
			return
		}
		s.respond(cs, id, s.serveRequest(ctx, h, remote, req))
	}(f.id, req, ctx)
}

// traceEcho renders the error-response trace suffix for a traced
// request ("" for untraced ones).
func traceEcho(traceID string) string {
	if traceID == "" {
		return ""
	}
	return " [trace " + traceID + "]"
}

// serveRequest runs one handler, converting a panic into a
// StatusAppError response instead of letting it kill the daemon: in an
// open market a single misbehaving service implementation must not take
// the whole node — and every co-hosted service — down with it.
func (s *Server) serveRequest(ctx context.Context, h Handler, remote string, req *Request) (resp *Response) {
	op := req.Service + "/" + req.Op
	start := time.Now()
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.m.panics.Inc()
			// The stack goes through the structured logger when one is
			// configured, so the panic line carries the request's trace
			// ID; otherwise through the plain logf fallback.
			if s.log != nil {
				s.log.Log(ctx, "panic", "op", op, "remote", remote,
					"panic", fmt.Sprintf("%v", r), "stack", string(debug.Stack()))
			} else {
				s.logf("wire: panic in %s handler: %v\n%s", op, r, debug.Stack())
			}
			resp = &Response{Status: StatusAppError, ErrMsg: fmt.Sprintf("handler panic: %v", r)}
		}
		d := time.Since(start)
		s.m.latency.With(op).Observe(d.Seconds())
		// Access log: one line per handled request, tagged with the
		// trace carried by ctx.
		if s.log != nil {
			s.log.Log(ctx, "rpc", "op", op, "remote", remote,
				"status", resp.Status.String(), "dur", d)
		}
		if tr := obs.TraceFrom(ctx); s.rec.Enabled() && tr.Valid() {
			s.rec.Record(obs.Span{
				Trace:    tr.ID,
				ID:       tr.Span,
				Parent:   tr.Parent,
				Op:       op,
				Peer:     remote,
				Kind:     obs.SpanServer,
				Status:   statusSlug(resp.Status),
				Start:    start,
				Duration: d,
			})
		}
		if s.slow > 0 && d >= s.slow {
			s.m.slow.Inc()
			// Sampled promotion: at most one watchdog line per second, so
			// a systemic slowdown surfaces without flooding the log.
			now := time.Now().UnixNano()
			if last := s.slowLast.Load(); now-last >= int64(time.Second) &&
				s.slowLast.CompareAndSwap(last, now) && s.log != nil {
				s.log.Log(ctx, "slow_request", "op", op, "remote", remote,
					"status", resp.Status.String(), "dur", d, "threshold", s.slow)
			}
		}
	}()
	resp = h.ServeCOSM(ctx, remote, req)
	if resp == nil {
		resp = &Response{Status: StatusAppError, ErrMsg: "nil response from handler"}
	}
	s.served.Add(1)
	return resp
}

// shedResponse rejects one request with StatusOverloaded and the
// configured retry-after hint.
func (s *Server) shedResponse(cs *connState, id uint64, why string) {
	s.shed.Add(1)
	s.m.sheds.Inc()
	s.respond(cs, id, &Response{
		Status:     StatusOverloaded,
		ErrMsg:     why,
		RetryAfter: s.admission.queueWait(),
	})
}

func (s *Server) respond(cs *connState, id uint64, resp *Response) {
	if s.m.status != nil {
		s.m.status.With(statusSlug(resp.Status)).Inc()
	}
	cs.writeMu.Lock()
	defer cs.writeMu.Unlock()
	// Bound the write so one wedged client socket cannot hold writeMu
	// and stall every concurrent handler response on this connection.
	_ = cs.conn.SetWriteDeadline(time.Now().Add(defaultWriteStall))
	err := writeFrame(cs.conn, frame{ftype: frameResponse, id: id, payload: encodeResponse(resp)})
	_ = cs.conn.SetWriteDeadline(time.Time{})
	if err != nil {
		// The read side will observe the broken connection and clean up.
		s.logf("wire: write response: %v", err)
	}
}

// OnDrain registers fn to run during Shutdown, after in-flight
// requests have drained (or the drain deadline expired) and before
// listeners and connections are torn down. The journal layer uses this
// for a final flush+fsync, so state written by requests served during
// the drain is never lost. Hooks run at most once, in registration
// order; they do not run on a bare Close.
func (s *Server) OnDrain(fn func()) {
	if fn == nil {
		return
	}
	s.mu.Lock()
	s.drainHooks = append(s.drainHooks, fn)
	s.mu.Unlock()
}

// runDrainHooks fires the registered OnDrain hooks exactly once.
func (s *Server) runDrainHooks() {
	s.drainOnce.Do(func() {
		s.mu.Lock()
		hooks := append([]func(){}, s.drainHooks...)
		s.mu.Unlock()
		for _, fn := range hooks {
			fn()
		}
	})
}

// Shutdown drains the server gracefully: it stops accepting new
// connections, sheds newly arriving requests with StatusOverloaded
// ("server draining") so clients fail over promptly, lets requests
// already dispatched finish, runs the OnDrain hooks, and then closes
// everything down. If ctx expires first, remaining in-flight work is
// aborted (its contexts are cancelled by the final Close) and ctx's
// error is returned — the hooks still run first, so whatever state the
// completed requests produced is flushed. Safe to call multiple times
// and concurrently with Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	alreadyClosed := s.closed
	s.draining = true
	ln := s.ln
	s.mu.Unlock()
	if alreadyClosed {
		s.runDrainHooks()
		return s.Close()
	}
	if ln != nil {
		_ = ln.Close()
	}

	done := make(chan struct{})
	go func() {
		s.inflight.Wait()
		close(done)
	}()
	var err error
	select {
	case <-done:
	case <-ctx.Done():
		err = fmt.Errorf("wire: shutdown: %w", ctx.Err())
	}
	s.runDrainHooks()
	_ = s.Close()
	return err
}

// Draining reports whether the server is shedding new work because a
// Shutdown is in progress.
func (s *Server) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// Close stops the listener, closes all connections, and waits for all
// handler goroutines to finish. In-flight work is aborted: request
// contexts are cancelled. Use Shutdown for a graceful drain. Safe to
// call multiple times.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		s.wg.Wait()
		return nil
	}
	s.closed = true
	ln := s.ln
	conns := make([]net.Conn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()

	s.baseCancel()
	if ln != nil {
		_ = ln.Close()
	}
	for _, c := range conns {
		_ = c.Close()
	}
	s.wg.Wait()
	return nil
}
