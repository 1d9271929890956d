package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/obs"
)

// Client-side errors.
var (
	// ErrClientClosed is returned by calls on a closed client, including
	// calls in flight when the connection breaks.
	ErrClientClosed = errors.New("wire: client closed")
	// ErrRemote wraps failures reported by the remote node (application
	// errors, unknown services or operations, protocol violations).
	ErrRemote = errors.New("wire: remote error")
)

// RemoteError is the client-side view of a non-OK response. It wraps
// ErrRemote and preserves the status class so callers can distinguish,
// e.g., an FSM protocol violation from an application error.
type RemoteError struct {
	Status Status
	Msg    string
	// RetryAfter is the server's backoff hint on StatusOverloaded
	// (zero when the server gave none).
	RetryAfter time.Duration
}

// Error formats the remote failure.
func (e *RemoteError) Error() string {
	if e.Msg == "" {
		return fmt.Sprintf("wire: remote error: %s", e.Status)
	}
	return fmt.Sprintf("wire: remote error: %s: %s", e.Status, e.Msg)
}

// Unwrap makes errors.Is(err, ErrRemote) hold for all remote errors.
func (e *RemoteError) Unwrap() error { return ErrRemote }

// defaultWriteStall caps how long one frame write may block on a stuck
// peer socket when the caller's context has no deadline of its own. A
// write that exceeds it breaks the connection: past that point the
// frame may be half-sent and the stream is unusable anyway.
const defaultWriteStall = 30 * time.Second

// Client is a multiplexing RPC client for one endpoint. Concurrent Call
// invocations share the connection; responses are correlated by frame
// id. Clients are safe for concurrent use.
type Client struct {
	endpoint string
	conn     net.Conn
	// rec, when enabled, records one client-kind span per traced call
	// (set by the owning Pool; see WithPoolRecorder).
	rec *obs.SpanRecorder

	writeMu sync.Mutex // serializes frame writes

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Response
	closed  bool
	readErr error

	readDone chan struct{}
}

// Dial connects an RPC client to an endpoint ("tcp:..." or "loop:...").
func Dial(endpoint string) (*Client, error) {
	conn, err := DialConnContext(context.Background(), endpoint)
	if err != nil {
		return nil, err
	}
	return newClientConn(endpoint, conn), nil
}

// newClientConn wraps an already-established transport connection in an
// RPC client. The client owns conn from here on.
func newClientConn(endpoint string, conn net.Conn) *Client {
	c := &Client{
		endpoint: endpoint,
		conn:     conn,
		pending:  map[uint64]chan *Response{},
		readDone: make(chan struct{}),
	}
	go c.readLoop()
	return c
}

// Endpoint returns the endpoint this client is connected to.
func (c *Client) Endpoint() string { return c.endpoint }

func (c *Client) readLoop() {
	defer close(c.readDone)
	for {
		f, err := readFrame(c.conn)
		if err != nil {
			c.failAll(err)
			return
		}
		if f.ftype != frameResponse {
			c.failAll(fmt.Errorf("%w: unexpected frame type %d", ErrBadFrame, f.ftype))
			return
		}
		resp, err := decodeResponse(f.payload)
		if err != nil {
			c.failAll(err)
			return
		}
		c.mu.Lock()
		ch, ok := c.pending[f.id]
		delete(c.pending, f.id)
		c.mu.Unlock()
		if ok {
			ch <- resp // buffered; never blocks
		}
	}
}

// failAll marks the client broken and wakes all waiters.
func (c *Client) failAll(err error) {
	c.mu.Lock()
	if !c.closed {
		c.closed = true
		c.readErr = err
	}
	pending := c.pending
	c.pending = map[uint64]chan *Response{}
	c.mu.Unlock()
	_ = c.conn.Close()
	for _, ch := range pending {
		close(ch) // receivers translate a closed channel into ErrClientClosed
	}
}

// broken reports whether the client can no longer carry calls.
func (c *Client) broken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.closed
}

// Call performs one RPC: it sends the request and waits for the matching
// response or ctx cancellation. A ctx deadline is stamped into the
// request frame as a TTL, propagating the caller's remaining budget to
// the server; a trace carried by ctx (obs.WithTrace) is stamped into the
// frame's trace metadata, so the server logs the same trace ID the
// caller minted. With a span recorder attached, each traced call mints a
// per-hop child span — stamped into the frame, so the server's handler
// span parents at it — and records it with the call's outcome and
// duration. Abandoning the call (ctx cancelled or expired) sends a
// best-effort cancel frame so server-side work stops too. On a non-OK
// status it returns a *RemoteError wrapping ErrRemote.
func (c *Client) Call(ctx context.Context, req *Request) (body []byte, err error) {
	trace := obs.TraceFrom(ctx)
	if c.rec.Enabled() && trace.Valid() {
		trace = trace.Child()
		start := time.Now()
		defer func() {
			c.rec.Record(obs.Span{
				Trace:    trace.ID,
				ID:       trace.Span,
				Parent:   trace.Parent,
				Op:       req.Service + "/" + req.Op,
				Peer:     c.endpoint,
				Kind:     obs.SpanClient,
				Status:   attemptStatusLabel(err),
				Start:    start,
				Duration: time.Since(start),
			})
		}()
	}
	var ttl uint64
	if d, ok := ctx.Deadline(); ok {
		// An already-expired budget is not worth a round trip.
		if !time.Now().Before(d) {
			return nil, fmt.Errorf("wire: call %s/%s: %w", req.Service, req.Op, context.DeadlineExceeded)
		}
		ttl = ttlOf(d, time.Now())
	}
	ch := make(chan *Response, 1)
	c.mu.Lock()
	if c.closed {
		err := c.readErr
		c.mu.Unlock()
		return nil, closeErr(err)
	}
	c.nextID++
	id := c.nextID
	c.pending[id] = ch
	c.mu.Unlock()

	// A write deadline (the caller's, capped at defaultWriteStall)
	// bounds the time one stuck peer socket can hold writeMu: without
	// it a single wedged write would block every concurrent caller of
	// this client forever.
	deadline := time.Now().Add(defaultWriteStall)
	if d, ok := ctx.Deadline(); ok && d.Before(deadline) {
		deadline = d
	}
	c.writeMu.Lock()
	_ = c.conn.SetWriteDeadline(deadline)
	werr := writeFrame(c.conn, frame{
		ftype:    frameRequest,
		id:       id,
		ttl:      ttl,
		traceID:  trace.ID,
		parentID: trace.Span,
		payload:  encodeRequest(req),
	})
	_ = c.conn.SetWriteDeadline(time.Time{})
	c.writeMu.Unlock()
	if werr != nil {
		// A failed write may have left a partial frame on the stream;
		// the connection is unusable for every caller, not just this
		// one — so this call, too, was in flight when the connection
		// broke (often the read loop saw the peer die first and closed
		// the socket under the write).
		c.failAll(werr)
		return nil, fmt.Errorf("wire: send %s/%s: %w: %w", req.Service, req.Op, ErrClientClosed, werr)
	}

	select {
	case resp, ok := <-ch:
		if !ok {
			c.mu.Lock()
			err := c.readErr
			c.mu.Unlock()
			return nil, closeErr(err)
		}
		if resp.Status != StatusOK {
			return nil, &RemoteError{Status: resp.Status, Msg: resp.ErrMsg, RetryAfter: resp.RetryAfter}
		}
		return resp.Body, nil
	case <-ctx.Done():
		c.mu.Lock()
		delete(c.pending, id)
		c.mu.Unlock()
		// Tell the server the caller has given up so it can cancel the
		// request's context. Best-effort: a lost cancel only means the
		// server finishes work nobody will read.
		c.sendCancel(id)
		return nil, fmt.Errorf("wire: call %s/%s: %w", req.Service, req.Op, ctx.Err())
	}
}

// sendCancel emits a cancel frame for id; failures break the connection
// like any other failed write (a half-sent frame poisons the stream).
func (c *Client) sendCancel(id uint64) {
	if c.broken() {
		return
	}
	c.writeMu.Lock()
	_ = c.conn.SetWriteDeadline(time.Now().Add(defaultWriteStall))
	err := writeFrame(c.conn, frame{ftype: frameCancel, id: id})
	_ = c.conn.SetWriteDeadline(time.Time{})
	c.writeMu.Unlock()
	if err != nil {
		c.failAll(err)
	}
}

func closeErr(cause error) error {
	if cause == nil {
		return ErrClientClosed
	}
	return fmt.Errorf("%w: %v", ErrClientClosed, cause)
}

// Close tears down the connection; in-flight calls fail with
// ErrClientClosed. Safe to call multiple times.
func (c *Client) Close() error {
	c.failAll(nil)
	<-c.readDone
	return nil
}

// PoolStats counts resilience events across a Pool's lifetime
// (monotonic, goroutine-safe).
type PoolStats struct {
	// Dials and DialFailures count dial attempts and their failures.
	Dials        uint64
	DialFailures uint64
	// Retries counts extra attempts made by Call beyond the first.
	Retries uint64
	// FailFast counts requests rejected immediately by an open
	// circuit breaker.
	FailFast uint64
	// BreakerOpens counts closed/half-open -> open transitions.
	BreakerOpens uint64
	// Sheds counts StatusOverloaded responses received: attempts the
	// server rejected under admission control or while draining.
	Sheds uint64
}

// Pool is a cache of Clients keyed by endpoint, used by the binder: a
// node talking to many peers reuses one connection per peer.
//
// Beyond caching, the Pool is the resilience layer of the stack:
//   - dials happen outside the pool lock with per-endpoint
//     singleflight, so one slow dial neither blocks other endpoints
//     nor is duplicated by concurrent callers;
//   - each endpoint has a circuit breaker (closed -> open after
//     consecutive failures -> half-open probe after a cooldown), so a
//     black-holed endpoint fails fast instead of stalling every
//     caller;
//   - Call performs one logical RPC under the pool's CallPolicy,
//     retrying connection-class failures with exponential backoff.
//
// The zero value is not usable; call NewPool.
type Pool struct {
	dialer        func(ctx context.Context, endpoint string) (net.Conn, error)
	policy        CallPolicy
	breakerPolicy BreakerPolicy
	now           func() time.Time
	m             poolMetrics
	recorder      *obs.SpanRecorder
	events        *obs.EventLog

	mu       sync.Mutex
	clients  map[string]*Client
	dialing  map[string]*dialCall
	breakers map[string]*Breaker
	closed   bool

	dials        atomic.Uint64
	dialFailures atomic.Uint64
	retries      atomic.Uint64
	failFast     atomic.Uint64
	breakerOpens atomic.Uint64
	sheds        atomic.Uint64
}

// dialCall is one in-flight dial shared by all concurrent Gets for the
// same endpoint (per-endpoint singleflight).
type dialCall struct {
	done chan struct{}
	c    *Client
	err  error
}

// PoolOption configures a Pool.
type PoolOption func(*Pool)

// defaultDialTimeout bounds a pool dial even when the caller's context
// carries no deadline of its own: a black-holed endpoint (SYN drop)
// must not absorb a dialer — and its singleflight followers — for the
// OS TCP timeout (~2 minutes).
const defaultDialTimeout = 10 * time.Second

// defaultDial is the pool's default dialer: DialConnContext under the
// caller's context, capped at defaultDialTimeout.
func defaultDial(ctx context.Context, endpoint string) (net.Conn, error) {
	ctx, cancel := context.WithTimeout(ctx, defaultDialTimeout)
	defer cancel()
	return DialConnContext(ctx, endpoint)
}

// WithDialer substitutes the transport dialer (default: DialConnContext
// capped at defaultDialTimeout). The fault-injecting FaultNet plugs in
// here. The dialer must honour ctx: a dial outliving its context defeats
// Get's and Call's timeout guarantees.
func WithDialer(dial func(ctx context.Context, endpoint string) (net.Conn, error)) PoolOption {
	return func(p *Pool) { p.dialer = dial }
}

// WithCallPolicy sets the retry policy used by Call.
func WithCallPolicy(policy CallPolicy) PoolOption {
	return func(p *Pool) { p.policy = policy }
}

// withBreakerPolicy sets the per-endpoint circuit breaker policy. A
// Threshold below 1 disables breaking entirely.
func withBreakerPolicy(policy BreakerPolicy) PoolOption {
	return func(p *Pool) { p.breakerPolicy = policy }
}

// WithPoolClock injects the time source driving breaker cooldowns
// (tests use a fake clock).
func WithPoolClock(now func() time.Time) PoolOption {
	return func(p *Pool) { p.now = now }
}

// WithPoolMetrics records the pool's dial, retry, shed and breaker
// activity plus per-endpoint call latency into reg's cosm_client_*
// families. A nil reg disables recording at negligible cost.
func WithPoolMetrics(reg *obs.Registry) PoolOption {
	return func(p *Pool) {
		p.m = bindPoolMetrics(reg)
		reg.GaugeFunc("cosm_client_breakers_open",
			"Endpoints whose circuit breaker is currently open.",
			func() float64 {
				p.mu.Lock()
				defer p.mu.Unlock()
				n := 0
				for _, b := range p.breakers {
					if b.State() == BreakerOpen {
						n++
					}
				}
				return float64(n)
			})
	}
}

// WithPoolRecorder attaches the flight recorder: every traced call made
// through the pool's clients records one client-kind span (op, peer,
// status, duration) into r. A nil r — recording off — costs nothing.
func WithPoolRecorder(r *obs.SpanRecorder) PoolOption {
	return func(p *Pool) { p.recorder = r }
}

// WithPoolEvents routes circuit-breaker state transitions into the
// cluster event timeline ev (endpoint and new state), so a post-mortem
// can see *which* peers the breakers condemned and when. A nil ev
// disables recording.
func WithPoolEvents(ev *obs.EventLog) PoolOption {
	return func(p *Pool) { p.events = ev }
}

// NewPool returns an empty client pool with the default call and
// breaker policies.
func NewPool(opts ...PoolOption) *Pool {
	p := &Pool{
		dialer:        defaultDial,
		policy:        defaultCallPolicy(),
		breakerPolicy: DefaultBreakerPolicy(),
		now:           time.Now,
		clients:       map[string]*Client{},
		dialing:       map[string]*dialCall{},
		breakers:      map[string]*Breaker{},
	}
	for _, o := range opts {
		o(p)
	}
	return p
}

// Stats returns a snapshot of the pool's resilience counters.
func (p *Pool) Stats() PoolStats {
	return PoolStats{
		Dials:        p.dials.Load(),
		DialFailures: p.dialFailures.Load(),
		Retries:      p.retries.Load(),
		FailFast:     p.failFast.Load(),
		BreakerOpens: p.breakerOpens.Load(),
		Sheds:        p.sheds.Load(),
	}
}

// breakerFor returns the endpoint's breaker, creating it lazily.
// Callers must hold p.mu.
func (p *Pool) breakerFor(endpoint string) *Breaker {
	b, ok := p.breakers[endpoint]
	if !ok {
		b = NewBreaker(p.breakerPolicy)
		if p.m.breaker != nil || p.events != nil {
			transitions, events, ep := p.m.breaker, p.events, endpoint
			b.onTransition = func(to BreakerState) {
				transitions.With(string(to)).Inc()
				events.Record("breaker", "endpoint", ep, "to", string(to))
			}
		}
		p.breakers[endpoint] = b
	}
	return b
}

// BreakerState reports the observable circuit state for endpoint.
// Endpoints never seen (or with breaking disabled) read as closed.
func (p *Pool) BreakerState(endpoint string) BreakerState {
	p.mu.Lock()
	b, ok := p.breakers[endpoint]
	p.mu.Unlock()
	if !ok {
		return BreakerClosed
	}
	return b.State()
}

// noteFailure feeds a dial/transport failure into the endpoint's
// breaker.
func (p *Pool) noteFailure(endpoint string) {
	p.mu.Lock()
	b := p.breakerFor(endpoint)
	p.mu.Unlock()
	if b.Failure(p.now()) {
		p.breakerOpens.Add(1)
	}
}

// noteSuccess feeds evidence of a live endpoint into its breaker.
func (p *Pool) noteSuccess(endpoint string) {
	p.mu.Lock()
	b, ok := p.breakers[endpoint]
	p.mu.Unlock()
	if ok {
		b.Success()
	}
}

// noteShed feeds a StatusOverloaded response into the endpoint's
// breaker. A shed is weighed distinctly from connection death: it
// proves the endpoint alive (closing a half-open circuit) without
// excusing earlier connection failures the way a success would.
func (p *Pool) noteShed(endpoint string) {
	p.sheds.Add(1)
	p.m.sheds.Inc()
	p.mu.Lock()
	b, ok := p.breakers[endpoint]
	p.mu.Unlock()
	if ok {
		b.shed()
	}
}

// Get returns a connected client for endpoint, dialing if needed. A
// previously cached client that has since broken is replaced. The dial
// itself runs outside the pool lock under ctx (capped by the dialer's
// own bound, defaultDialTimeout for the default dialer): concurrent
// Gets for the same endpoint share one dial, a slow dial to one
// endpoint does not block Gets for others, and a caller whose ctx
// expires stops waiting even if the shared dial is still in flight.
// While the endpoint's circuit breaker is open, Get fails fast with
// ErrCircuitOpen.
func (p *Pool) Get(ctx context.Context, endpoint string) (*Client, error) {
	for {
		p.mu.Lock()
		if p.closed {
			p.mu.Unlock()
			return nil, ErrClientClosed
		}
		if c, ok := p.clients[endpoint]; ok {
			if !c.broken() {
				p.mu.Unlock()
				p.m.reuses.Inc()
				return c, nil
			}
			delete(p.clients, endpoint)
		}
		if dc, ok := p.dialing[endpoint]; ok {
			// During half-open the in-flight dial is the breaker's
			// single probe: everyone else fails fast instead of
			// queueing behind a dial to a likely-dead endpoint.
			if b, known := p.breakers[endpoint]; known && b.State() == BreakerHalfOpen {
				p.mu.Unlock()
				p.failFast.Add(1)
				p.m.failFast.Inc()
				return nil, fmt.Errorf("%w: probe in flight (endpoint %s)", ErrCircuitOpen, endpoint)
			}
			p.mu.Unlock()
			select {
			case <-dc.done:
			case <-ctx.Done():
				return nil, fmt.Errorf("wire: dial %s: %w", endpoint, ctx.Err())
			}
			if dc.err != nil {
				return nil, dc.err
			}
			if !dc.c.broken() {
				return dc.c, nil
			}
			continue // the shared dial died immediately; start over
		}
		b := p.breakerFor(endpoint)
		if err := b.Allow(p.now()); err != nil {
			p.mu.Unlock()
			p.failFast.Add(1)
			p.m.failFast.Inc()
			return nil, fmt.Errorf("%w (endpoint %s)", err, endpoint)
		}
		dc := &dialCall{done: make(chan struct{})}
		p.dialing[endpoint] = dc
		dial := p.dialer
		p.mu.Unlock()

		p.dials.Add(1)
		p.m.dials.Inc()
		conn, err := dial(ctx, endpoint)
		var c *Client
		if err == nil {
			c = newClientConn(endpoint, conn)
			c.rec = p.recorder
		}

		p.mu.Lock()
		delete(p.dialing, endpoint)
		closed := p.closed
		if err == nil && !closed {
			p.clients[endpoint] = c
		}
		p.mu.Unlock()

		if err != nil {
			p.dialFailures.Add(1)
			p.m.dialFailures.Inc()
			if b.Failure(p.now()) {
				p.breakerOpens.Add(1)
			}
			dc.err = err
			close(dc.done)
			return nil, err
		}
		if closed {
			_ = c.Close()
			dc.err = ErrClientClosed
			close(dc.done)
			return nil, ErrClientClosed
		}
		b.Success() // a completed dial is evidence of a live endpoint
		dc.c = c
		close(dc.done)
		return c, nil
	}
}

// Call performs one logical RPC against endpoint under the pool's
// CallPolicy: per-attempt timeouts (covering dial and call alike),
// bounded retries with exponential backoff and jitter, and the
// endpoint's circuit breaker. Only connection-class failures are
// retried (see Transient); remote application errors return
// immediately. Because a timed-out attempt may nonetheless have
// executed server-side (only the response was late), Call must carry
// idempotent operations only — non-idempotent invocations go through
// Client.Call directly, exactly once (see cosm.Conn.Invoke).
func (p *Pool) Call(ctx context.Context, endpoint string, req *Request) ([]byte, error) {
	return p.callWith(ctx, endpoint, req, p.policy)
}

// callWith is Call under an explicit policy.
func (p *Pool) callWith(ctx context.Context, endpoint string, req *Request, policy CallPolicy) ([]byte, error) {
	attempts := policy.attempts()
	var lastErr error
	attempt := 1
	for ; ; attempt++ {
		var retryAfter time.Duration
		start := time.Now()
		actx, cancel := policy.attemptCtx(ctx)
		c, err := p.Get(actx, endpoint)
		if err == nil {
			var body []byte
			body, err = c.Call(actx, req)
			if err == nil {
				cancel()
				p.m.observeAttempt(endpoint, start, nil)
				p.noteSuccess(endpoint)
				return body, nil
			}
			if !Transient(err) {
				cancel()
				p.m.observeAttempt(endpoint, start, err)
				if errors.Is(err, ErrRemote) {
					// Any remote response proves the endpoint alive.
					p.noteSuccess(endpoint)
				}
				return nil, err
			}
			var remote *RemoteError
			switch {
			case errors.As(err, &remote):
				// A transient remote response (overloaded shed, expired
				// deadline): the request provably did not execute and the
				// endpoint is provably alive — back off and retry,
				// honouring the server's hint, without condemning the
				// connection.
				if remote.Status == StatusOverloaded {
					p.noteShed(endpoint)
					retryAfter = remote.RetryAfter
				} else {
					p.noteSuccess(endpoint)
				}
			case c.broken():
				// Connection-class failure. Only a broken client condemns
				// the shared connection: on a per-attempt timeout with the
				// connection still live, the client is kept — dropping it
				// would fail every concurrent in-flight call multiplexed
				// on it — and no breaker failure is recorded against a
				// merely slow endpoint.
				p.drop(endpoint)
				p.noteFailure(endpoint)
			}
		}
		cancel()
		p.m.observeAttempt(endpoint, start, err)
		lastErr = err
		if attempt >= attempts {
			break
		}
		if ctx.Err() != nil {
			break
		}
		// An overloaded server's retry-after hint takes precedence over a
		// shorter policy backoff: retrying into a shedding server sooner
		// than it asked only feeds the overload.
		d := backoff(attempt)
		if retryAfter > d {
			d = retryAfter
		}
		t := time.NewTimer(d)
		select {
		case <-ctx.Done():
			t.Stop()
			return nil, fmt.Errorf("wire: call %s/%s: %w", req.Service, req.Op, ctx.Err())
		case <-t.C:
		}
		p.retries.Add(1)
		p.m.retries.Inc()
	}
	return nil, fmt.Errorf("wire: call %s/%s: %d of %d attempt(s) failed: %w", req.Service, req.Op, attempt, attempts, lastErr)
}

// drop removes and closes the cached client for endpoint, if any.
func (p *Pool) drop(endpoint string) {
	p.mu.Lock()
	c, ok := p.clients[endpoint]
	delete(p.clients, endpoint)
	p.mu.Unlock()
	if ok {
		_ = c.Close()
	}
}

// Close closes all cached clients.
func (p *Pool) Close() error {
	p.mu.Lock()
	clients := p.clients
	p.clients = map[string]*Client{}
	p.closed = true
	p.mu.Unlock()
	for _, c := range clients {
		_ = c.Close()
	}
	return nil
}
