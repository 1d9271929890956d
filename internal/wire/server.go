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
// is opaque to the wire layer; a Body encoded in a buffer from
// BorrowBuf names it in Response.Buf, and the server hands it back
// after the write.
//
// req, and the response req.Reply lends, are the server's again once
// the response is written: a Handler keeps neither past its return.
// The strings it reads from req — Service, Op, Received and what it
// decodes from Received — are windows of the one string the request
// was read into (DESIGN.md section 6). They stay valid, but each keeps
// that whole string alive, so a Handler that keeps one past its return
// keeps a clone (strings.Clone).
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
	remote  string
	writeMu sync.Mutex // serializes frame writes

	// ctx parents every request on this connection: a broken or closed
	// connection cancels all of its in-flight handlers.
	ctx context.Context
	// handlers counts the connection's handler goroutines, which the read
	// loop waits for before the connection closes.
	handlers sync.WaitGroup

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

	cs := &connState{conn: conn, remote: conn.RemoteAddr().String(), cancels: map[uint64]context.CancelFunc{}}
	var cancel context.CancelFunc
	cs.ctx, cancel = context.WithCancel(s.baseCtx)
	// Deferred calls run last first: the handlers are cancelled, and then
	// waited for.
	defer cs.handlers.Wait()
	defer cancel()

	frames := newFrameReader(conn)
	for {
		f, err := frames.next()
		if err != nil {
			// EOF and closed-connection errors are normal client
			// departures; framing errors are worth a log line.
			if errors.Is(err, ErrBadFrame) || errors.Is(err, ErrFrameTooLarge) {
				s.logf("wire: %s: %v", cs.remote, err)
			}
			return
		}
		switch f.ftype {
		case frameCancel:
			cs.cancel(f.id)
			continue
		case frameRequest:
		default:
			s.logf("wire: %s: unexpected frame type %d", cs.remote, f.ftype)
			return
		}
		c := newServerCall()
		c.s, c.cs, c.id, c.traceID = s, cs, f.id, f.traceID
		if err := decodeRequest(f.payload, &c.req); err != nil {
			c.answer(c.req.Reply(StatusBadRequest, err.Error()))
			continue
		}
		s.mu.Lock()
		h, ok := s.services[c.req.Service]
		draining := s.draining
		s.mu.Unlock()
		if !ok {
			c.answer(c.req.Reply(StatusNoService, c.req.Service))
			continue
		}
		c.h = h
		s.dispatch(c, f, draining)
	}
}

// serverCall is one request from its read to its response: the request
// its handler reads, the response the handler may fill (Request.Reply),
// and what the goroutine that runs the handler needs. serverCalls pools
// them, and each goes back once its response is written.
type serverCall struct {
	req  Request
	resp Response

	s       *Server
	cs      *connState
	h       Handler
	id      uint64
	traceID string
	ctx     context.Context
	cancel  context.CancelFunc
	// queueing says the request waits for an in-flight slot (dispatch).
	queueing bool
	// run is serve, which dispatch hands to a parked worker, and start
	// is work, which it starts on a new goroutine when none is parked:
	// both are bound once per serverCall, so that neither allocates a
	// closure.
	run, start func()
}

var serverCalls sync.Pool

// newServerCall takes a serverCall from serverCalls, or makes one.
func newServerCall() *serverCall {
	if c, ok := serverCalls.Get().(*serverCall); ok {
		return c
	}
	c := new(serverCall)
	c.req.resp = &c.resp
	c.run, c.start = c.serve, c.work
	return c
}

// free empties c and hands it back to serverCalls.
func (c *serverCall) free() {
	*c = serverCall{req: Request{resp: &c.resp}, run: c.run, start: c.start}
	serverCalls.Put(c)
}

// answer responds to a request the read loop refuses, and frees it.
func (c *serverCall) answer(resp *Response) {
	c.s.respond(c.cs, c.id, resp)
	c.free()
}

// dispatch applies deadline, drain and admission checks to one request
// and, when admitted, runs its handler on a goroutine of its own so one
// slow operation does not block the connection (the multiplexing that
// Sun RPC over TCP lacks, but DCE-style RPC provides): a parked worker
// of the worker set (see Go), or a new goroutine that parks once the
// response is written, so a handler's grown stack serves the next
// request. Shed and reject paths respond inline from the read loop:
// they take no goroutine, so the goroutines running handlers are
// bounded by MaxInFlight + MaxQueue, and the parked ones by the worker
// set's cap.
func (s *Server) dispatch(c *serverCall, f frame, draining bool) {
	// Deadline propagation: the request context inherits the caller's
	// remaining budget, and is independently cancellable so a cancel
	// frame for this id can abort just this request. An already-expired
	// request is rejected before any queueing or handler work.
	var ctx context.Context
	var cancel context.CancelFunc
	if f.ttl > 0 {
		ctx, cancel = context.WithTimeout(c.cs.ctx, time.Duration(f.ttl)*time.Microsecond)
	} else {
		ctx, cancel = context.WithCancel(c.cs.ctx)
	}
	// Trace continuation: the handler context carries the caller's trace
	// ID under a fresh span parented at the caller's span, so every log
	// line this request produces — here and on further hops — shares one
	// trace ID.
	if f.traceID != "" {
		ctx = obs.WithTrace(ctx, obs.Trace{ID: f.traceID, Span: f.parentID}.Child())
	}
	if ctx.Err() != nil || f.ttl == 1 {
		// A 1µs TTL is the stamp of a caller at (or past) its deadline.
		cancel()
		c.expire()
		c.free()
		return
	}
	if draining {
		cancel()
		c.shed("server draining")
		c.free()
		return
	}
	if s.sem != nil {
		select {
		case s.sem <- struct{}{}: // free slot: admit immediately
		default:
			if int(s.queued.Load()) >= s.admission.MaxQueue {
				cancel()
				c.shed("admission queue full")
				c.free()
				return
			}
			s.queued.Add(1)
			c.queueing = true
		}
	}

	s.inflight.Add(1)
	s.m.inflight.Add(1)
	c.cs.handlers.Add(1)
	c.cs.register(c.id, cancel)
	c.ctx, c.cancel = ctx, cancel
	if !handOff(c.run) {
		spawn(c.start)
	}
}

// work serves c on a new goroutine, which then parks as a worker.
func (c *serverCall) work() {
	c.serve()
	park()
}

// serve runs on the request's own goroutine: it waits for an in-flight
// slot when dispatch queued the request, runs the handler and writes its
// response, and then frees c.
func (c *serverCall) serve() {
	s := c.s
	defer c.finish()
	if c.queueing {
		// FIFO admission wait, bounded by the queue-time cap and the
		// request's own deadline: work nobody is waiting for anymore must
		// not occupy a slot.
		waitStart := time.Now()
		wait := time.NewTimer(s.admission.queueWait())
		select {
		case s.sem <- struct{}{}:
			wait.Stop()
			s.m.queueWait.Observe(time.Since(waitStart).Seconds())
		case <-wait.C:
			s.queued.Add(-1)
			c.shed("queue wait exceeded")
			return
		case <-c.ctx.Done():
			wait.Stop()
			s.queued.Add(-1)
			c.expire()
			return
		}
		s.queued.Add(-1)
	}
	if s.sem != nil {
		defer func() { <-s.sem }()
	}
	// Re-check after queueing: the deadline may have expired while
	// waiting for a slot.
	if c.ctx.Err() != nil {
		c.expire()
		return
	}
	s.respond(c.cs, c.id, s.serveRequest(c))
}

// finish retires a dispatched request once its response is written.
func (c *serverCall) finish() {
	s, cs := c.s, c.cs
	c.cancel()
	cs.unregister(c.id)
	s.m.inflight.Add(-1)
	s.inflight.Done()
	cs.handlers.Done()
	c.free()
}

// echo renders the error-response trace suffix: error responses echo
// the trace ID so a caller holding only the error text can still find
// the server-side footprint ("" for untraced requests).
func (c *serverCall) echo() string {
	if c.traceID == "" {
		return ""
	}
	return " [trace " + c.traceID + "]"
}

// serveRequest runs one handler, converting a panic into a
// StatusAppError response instead of letting it kill the daemon: in an
// open market a single misbehaving service implementation must not take
// the whole node — and every co-hosted service — down with it. A
// handler that calls runtime.Goexit is answered the same way, and the
// response is written here: the goroutine unwinds past serve, which
// would write it. The op label is built only when a metric, log line,
// span or watchdog reads it.
func (s *Server) serveRequest(c *serverCall) (resp *Response) {
	ctx, remote, req := c.ctx, c.cs.remote, &c.req
	start := time.Now()
	defer func() {
		r := recover()
		// A handler's nil response was replaced below, and recover
		// returns non-nil for any panic: a nil resp here is a Goexit.
		goexit := r == nil && resp == nil
		d := time.Since(start)
		tr := obs.TraceFrom(ctx)
		traced := s.rec.Enabled() && tr.Valid()
		slow := s.slow > 0 && d >= s.slow
		var op string
		if r != nil || goexit || s.m.latency != nil || s.log != nil || traced || slow {
			op = req.Service + "/" + req.Op
		}
		if r != nil || goexit {
			s.panics.Add(1)
			s.m.panics.Inc()
			what := "runtime.Goexit"
			if r != nil {
				what = fmt.Sprintf("%v", r)
			}
			// The stack goes through the structured logger when one is
			// configured, so the panic line carries the request's trace
			// ID; otherwise through the plain logf fallback.
			if s.log != nil {
				s.log.Log(ctx, "panic", "op", op, "remote", remote,
					"panic", what, "stack", string(debug.Stack()))
			} else {
				s.logf("wire: panic in %s handler: %s\n%s", op, what, debug.Stack())
			}
			resp = req.Reply(StatusAppError, "handler panic: "+what)
		}
		if s.m.latency != nil {
			s.m.latency.With(op).Observe(d.Seconds())
		}
		// Access log: one line per handled request, tagged with the
		// trace carried by ctx.
		if s.log != nil {
			s.log.Log(ctx, "rpc", "op", op, "remote", remote,
				"status", resp.Status.String(), "dur", d)
		}
		if traced {
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
		if slow {
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
		if goexit {
			s.respond(c.cs, c.id, resp)
		}
	}()
	resp = c.h.ServeCOSM(ctx, remote, req)
	if resp == nil {
		resp = req.Reply(StatusAppError, "nil response from handler")
	}
	s.served.Add(1)
	return resp
}

// shed rejects the request with StatusOverloaded and the configured
// retry-after hint.
func (c *serverCall) shed(why string) {
	s := c.s
	s.shed.Add(1)
	s.m.sheds.Inc()
	resp := c.req.Reply(StatusOverloaded, why+c.echo())
	resp.RetryAfter = s.admission.queueWait()
	s.respond(c.cs, c.id, resp)
}

// expire rejects the request with StatusDeadlineExpired: its deadline
// passed before its handler could run.
func (c *serverCall) expire() {
	s := c.s
	s.expired.Add(1)
	s.m.expired.Inc()
	s.respond(c.cs, c.id, c.req.Reply(StatusDeadlineExpired, c.req.Service+"/"+c.req.Op+c.echo()))
}

// respond writes resp and then hands back the buffer its body was
// encoded in, whether the write succeeded or not. A response too large
// for a frame fails alone: appendFrame refuses it before a byte of it
// is written, so the stream is intact, and the caller gets an error
// response that names the limit while the connection's other calls go
// on.
func (s *Server) respond(cs *connState, id uint64, resp *Response) {
	status := resp.Status
	cs.writeMu.Lock()
	defer cs.writeMu.Unlock()
	// Bound the write so one wedged client socket cannot hold writeMu
	// and stall every concurrent handler response on this connection.
	_ = cs.conn.SetWriteDeadline(time.Now().Add(defaultWriteStall))
	err := sendFrame(cs.conn, &frame{ftype: frameResponse, id: id, resp: resp})
	if errors.Is(err, ErrFrameTooLarge) {
		s.logf("wire: write response: %v", err)
		status = StatusAppError
		err = sendFrame(cs.conn, &frame{ftype: frameResponse, id: id, resp: &Response{Status: status,
			ErrMsg: fmt.Sprintf("%v, over the limit of %d", err, MaxFramePayload)}})
	}
	_ = cs.conn.SetWriteDeadline(time.Time{})
	ReleaseBuf(resp.Buf)
	if err != nil {
		// A write that failed may have left part of a frame on the
		// stream, and a response written behind it would reach the
		// client misaligned. Close the connection, as the client does
		// (failAll): the client fails its pending calls, the read loop
		// here ends and cancels this connection's handlers.
		s.logf("wire: write response: %v", err)
		_ = cs.conn.Close()
	}
	if s.m.status != nil {
		s.m.status.With(statusSlug(status)).Inc()
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
