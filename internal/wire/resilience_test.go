package wire

import (
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosm/internal/obs"
)

func TestTransientClassification(t *testing.T) {
	cases := []struct {
		name string
		err  error
		want bool
	}{
		{"nil", nil, false},
		{"dial failure", errors.New("dial tcp: connection refused"), true},
		{"client closed", ErrClientClosed, true},
		{"deadline", context.DeadlineExceeded, true},
		{"canceled", context.Canceled, false},
		{"wrapped canceled", fmt.Errorf("call: %w", context.Canceled), false},
		{"remote app error", &RemoteError{Status: StatusAppError}, false},
		{"remote protocol", &RemoteError{Status: StatusProtocol}, false},
		{"remote no service", &RemoteError{Status: StatusNoService}, false},
		// Rejected before dispatch: the op did not run, retry is safe —
		// and this is what an in-flight corrupted frame looks like.
		{"remote bad request", &RemoteError{Status: StatusBadRequest}, true},
		{"wrapped bad request", fmt.Errorf("x: %w", &RemoteError{Status: StatusBadRequest}), true},
	}
	for _, tc := range cases {
		if got := Transient(tc.err); got != tc.want {
			t.Errorf("Transient(%s) = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestPoolSingleflightDial: many concurrent Gets for one endpoint must
// share a single dial, and the dial must not run under the pool lock —
// Gets for a different endpoint proceed while it is stuck.
func TestPoolSingleflightDial(t *testing.T) {
	_, fastEP := startServer(t, "loop:sf-fast", map[string]Handler{"echo": echoHandler()})

	var dials atomic.Int32
	release := make(chan struct{})
	p := NewPool(WithDialer(func(ctx context.Context, endpoint string) (net.Conn, error) {
		if endpoint == "loop:sf-slow" {
			dials.Add(1)
			<-release
		}
		return DialConnContext(ctx, endpoint)
	}))
	defer p.Close()

	_, slowEP := startServer(t, "loop:sf-slow", map[string]Handler{"echo": echoHandler()})

	const callers = 8
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Get(context.Background(), slowEP)
		}(i)
	}

	// While the slow dial is parked, another endpoint stays reachable:
	// the dial is provably outside the pool lock.
	fastDone := make(chan error, 1)
	go func() {
		_, err := p.Get(context.Background(), fastEP)
		fastDone <- err
	}()
	select {
	case err := <-fastDone:
		if err != nil {
			t.Fatalf("fast Get failed: %v", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("Get(fast) blocked behind a slow dial to another endpoint")
	}

	close(release)
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("Get %d: %v", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials for %d concurrent Gets, want 1", n, callers)
	}
}

// TestPoolSingleflightDialFailure: concurrent Gets against a dead
// endpoint share the single dial's error.
func TestPoolSingleflightDialFailure(t *testing.T) {
	var dials atomic.Int32
	release := make(chan struct{})
	dialErr := errors.New("host unreachable")
	p := NewPool(WithDialer(func(context.Context, string) (net.Conn, error) {
		dials.Add(1)
		<-release
		return nil, dialErr
	}))
	defer p.Close()

	const callers = 6
	var wg sync.WaitGroup
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, errs[i] = p.Get(context.Background(), "loop:sf-dead")
		}(i)
	}
	// Let the callers pile onto the in-flight dial, then fail it.
	time.Sleep(50 * time.Millisecond)
	close(release)
	wg.Wait()

	for i, err := range errs {
		if !errors.Is(err, dialErr) {
			t.Fatalf("Get %d: err = %v, want the shared dial error", i, err)
		}
	}
	if n := dials.Load(); n != 1 {
		t.Fatalf("%d dials, want 1 shared failed dial", n)
	}
	if s := p.Stats(); s.DialFailures != 1 {
		t.Fatalf("DialFailures = %d, want 1", s.DialFailures)
	}
}

// TestPoolReplacesBrokenClient: a cached client whose connection has
// died is replaced by a fresh dial on the next Get, not returned broken
// forever.
func TestPoolReplacesBrokenClient(t *testing.T) {
	_, bound := startServer(t, "loop:replace", map[string]Handler{"echo": echoHandler()})
	p := NewPool()
	defer p.Close()

	c1, err := p.Get(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	_ = c1.Close() // simulate the connection dying under the pool

	c2, err := p.Get(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	if c2 == c1 {
		t.Fatal("Get returned the broken cached client")
	}
	if _, err := c2.Call(context.Background(), &Request{Service: "echo", Op: "Hi"}); err != nil {
		t.Fatalf("replacement client does not work: %v", err)
	}
	if s := p.Stats(); s.Dials != 2 {
		t.Fatalf("Dials = %d, want 2 (original + replacement)", s.Dials)
	}
}

// TestPoolCallRetriesTransient: dial failures are retried under the
// pool's policy until the endpoint comes back.
func TestPoolCallRetriesTransient(t *testing.T) {
	_, bound := startServer(t, "loop:retry-ok", map[string]Handler{"echo": echoHandler()})

	var dials atomic.Int32
	p := NewPool(
		WithDialer(func(ctx context.Context, endpoint string) (net.Conn, error) {
			if dials.Add(1) <= 2 {
				return nil, errors.New("injected dial failure")
			}
			return DialConnContext(ctx, endpoint)
		}),
		WithCallPolicy(CallPolicy{MaxAttempts: 3}),
	)
	defer p.Close()

	body, err := p.Call(context.Background(), bound, &Request{Service: "echo", Op: "Ping", Body: []byte("x")})
	if err != nil {
		t.Fatalf("Call failed despite retries: %v", err)
	}
	if string(body) != "Ping:x" {
		t.Fatalf("body = %q", body)
	}
	if s := p.Stats(); s.Retries != 2 || s.DialFailures != 2 {
		t.Fatalf("stats = %+v, want 2 retries and 2 dial failures", s)
	}
}

// TestPoolCallGivesUpOnRemoteError: a remote application error is
// final — the handler must run exactly once, because the operation may
// not be idempotent.
func TestPoolCallGivesUpOnRemoteError(t *testing.T) {
	var handlerRuns atomic.Int32
	_, bound := startServer(t, "loop:no-retry-remote", map[string]Handler{
		"svc": HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
			handlerRuns.Add(1)
			return &Response{Status: StatusAppError, ErrMsg: "no cars left"}
		}),
	})
	p := NewPool(WithCallPolicy(CallPolicy{MaxAttempts: 5}))
	defer p.Close()

	_, err := p.Call(context.Background(), bound, &Request{Service: "svc", Op: "Book"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusAppError {
		t.Fatalf("err = %v, want the remote application error", err)
	}
	if n := handlerRuns.Load(); n != 1 {
		t.Fatalf("handler ran %d times, want exactly 1 (no retry of remote errors)", n)
	}
	if s := p.Stats(); s.Retries != 0 {
		t.Fatalf("Retries = %d, want 0", s.Retries)
	}
}

// TestPoolCallRetriesBadRequest: StatusBadRequest means the server
// rejected the frame before dispatch, so the policy may retry it (the
// recovery path for in-flight corruption).
func TestPoolCallRetriesBadRequest(t *testing.T) {
	var runs atomic.Int32
	_, bound := startServer(t, "loop:retry-badreq", map[string]Handler{
		"svc": HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
			if runs.Add(1) == 1 {
				return &Response{Status: StatusBadRequest, ErrMsg: "garbled"}
			}
			return &Response{Status: StatusOK, Body: []byte("ok")}
		}),
	})
	p := NewPool(WithCallPolicy(CallPolicy{MaxAttempts: 3}))
	defer p.Close()

	body, err := p.Call(context.Background(), bound, &Request{Service: "svc", Op: "Get"})
	if err != nil || string(body) != "ok" {
		t.Fatalf("Call = %q, %v; want recovery on the retry", body, err)
	}
	if n := runs.Load(); n != 2 {
		t.Fatalf("handler ran %d times, want 2", n)
	}
}

// TestTimeoutKeepsSharedClientAndBreaker: a per-attempt timeout against
// a slow but live server must not drop the shared multiplexed client —
// that would fail every concurrent in-flight call on the endpoint — and
// must not feed the endpoint's breaker: slow is not dead.
func TestTimeoutKeepsSharedClientAndBreaker(t *testing.T) {
	_, bound := startServer(t, "loop:slow-live", map[string]Handler{
		"slow": HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
			time.Sleep(150 * time.Millisecond)
			return &Response{Status: StatusOK, Body: []byte("late")}
		}),
	})
	p := NewPool(withBreakerPolicy(BreakerPolicy{Threshold: 2, Cooldown: time.Minute}))
	defer p.Close()

	c1, err := p.Get(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}

	impatient := CallPolicy{MaxAttempts: 1, AttemptTimeout: 30 * time.Millisecond}
	for i := 0; i < 4; i++ {
		_, err := p.callWith(context.Background(), bound, &Request{Service: "slow", Op: "x"}, impatient)
		if !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("call %d err = %v, want DeadlineExceeded", i, err)
		}
	}
	if c1.broken() {
		t.Fatal("per-attempt timeouts broke the shared client")
	}
	c2, err := p.Get(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	if c2 != c1 {
		t.Fatal("per-attempt timeout dropped the shared client from the pool")
	}
	if st := p.BreakerState(bound); st != BreakerClosed {
		t.Fatalf("breaker = %s after timeouts on a live endpoint, want closed", st)
	}
	// A patient caller still gets through on the same connection.
	patient := CallPolicy{MaxAttempts: 1, AttemptTimeout: 5 * time.Second}
	if body, err := p.callWith(context.Background(), bound, &Request{Service: "slow", Op: "x"}, patient); err != nil || string(body) != "late" {
		t.Fatalf("patient call = %q, %v; want the late response", body, err)
	}
}

// TestDialHonorsAttemptContext: a black-holed endpoint — the dial never
// completes — must cost a caller at most the per-attempt timeout per
// attempt, not the OS connect timeout (~2 minutes).
func TestDialHonorsAttemptContext(t *testing.T) {
	p := NewPool(
		WithDialer(func(ctx context.Context, _ string) (net.Conn, error) {
			<-ctx.Done() // SYN black hole: nothing ever answers
			return nil, ctx.Err()
		}),
		WithCallPolicy(CallPolicy{MaxAttempts: 2, AttemptTimeout: 50 * time.Millisecond}),
	)
	defer p.Close()

	start := time.Now()
	_, err := p.Call(context.Background(), "loop:blackhole", &Request{Service: "s", Op: "o"})
	if err == nil {
		t.Fatal("call against a black hole succeeded")
	}
	if el := time.Since(start); el > 2*time.Second {
		t.Fatalf("call took %v; the attempt timeout did not bound the black-holed dial", el)
	}
	if !strings.Contains(err.Error(), "2 of 2 attempt(s) failed") {
		t.Fatalf("err = %v, want 2 of 2 attempts reported", err)
	}
}

// TestCallReportsActualAttemptCount: when the caller's context dies
// before the retry budget is spent, the terminal error reports the
// attempts that actually ran, not the policy maximum.
func TestCallReportsActualAttemptCount(t *testing.T) {
	p := NewPool(
		WithDialer(func(context.Context, string) (net.Conn, error) {
			return nil, errors.New("down")
		}),
		WithCallPolicy(CallPolicy{MaxAttempts: 5}),
	)
	defer p.Close()

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := p.Call(ctx, "loop:x", &Request{Service: "s", Op: "o"})
	if err == nil || !strings.Contains(err.Error(), "1 of 5 attempt(s) failed") {
		t.Fatalf("err = %v, want 1 of 5 attempts reported", err)
	}
}

// fakeClock is a mutable clock for breaker tests.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func (f *fakeClock) Now() time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.now
}

func (f *fakeClock) Advance(d time.Duration) {
	f.mu.Lock()
	f.now = f.now.Add(d)
	f.mu.Unlock()
}

// TestBreakerLifecycle drives one endpoint's breaker through
// closed -> open -> fail-fast -> half-open probe -> closed using a
// fake clock.
func TestBreakerLifecycle(t *testing.T) {
	clk := &fakeClock{now: time.Unix(1000, 0)}
	events := obs.NewEventLog("pool", 16)
	dialOK := atomic.Bool{}
	var dials atomic.Int32
	p := NewPool(
		WithDialer(func(context.Context, string) (net.Conn, error) {
			dials.Add(1)
			if !dialOK.Load() {
				return nil, errors.New("down")
			}
			return DialConnContext(context.Background(), "loop:breaker-live")
		}),
		withBreakerPolicy(BreakerPolicy{Threshold: 2, Cooldown: time.Minute}),
		WithPoolClock(clk.Now),
		WithPoolEvents(events),
	)
	defer p.Close()
	startServer(t, "loop:breaker-live", map[string]Handler{"echo": echoHandler()})

	ep := "loop:breaker-ep"
	// Two consecutive dial failures open the circuit.
	for i := 0; i < 2; i++ {
		if _, err := p.Get(context.Background(), ep); err == nil {
			t.Fatal("Get against a dead endpoint must fail")
		}
	}
	if st := p.BreakerState(ep); st != BreakerOpen {
		t.Fatalf("state after %d failures = %s, want open", 2, st)
	}
	if s := p.Stats(); s.BreakerOpens != 1 {
		t.Fatalf("BreakerOpens = %d, want 1", s.BreakerOpens)
	}

	// While open, callers fail fast without dialing.
	before := dials.Load()
	if _, err := p.Get(context.Background(), ep); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err = %v, want ErrCircuitOpen", err)
	}
	if dials.Load() != before {
		t.Fatal("open breaker still dialed")
	}
	if s := p.Stats(); s.FailFast != 1 {
		t.Fatalf("FailFast = %d, want 1", s.FailFast)
	}

	// Cooldown elapses but the endpoint is still down: the half-open
	// probe fails and the circuit reopens.
	clk.Advance(2 * time.Minute)
	if _, err := p.Get(context.Background(), ep); err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe err = %v, want the real dial error", err)
	}
	if st := p.BreakerState(ep); st != BreakerOpen {
		t.Fatalf("state after failed probe = %s, want open (reopened)", st)
	}
	if _, err := p.Get(context.Background(), ep); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err right after failed probe = %v, want ErrCircuitOpen", err)
	}

	// Endpoint recovers; next probe closes the circuit.
	clk.Advance(2 * time.Minute)
	dialOK.Store(true)
	if _, err := p.Get(context.Background(), ep); err != nil {
		t.Fatalf("probe after recovery: %v", err)
	}
	if st := p.BreakerState(ep); st != BreakerClosed {
		t.Fatalf("state after successful probe = %s, want closed", st)
	}
	// And normal traffic flows again.
	if _, err := p.Call(context.Background(), ep, &Request{Service: "echo", Op: "Hi"}); err != nil {
		t.Fatalf("call after recovery: %v", err)
	}
	// The timeline names the endpoint and every state it went through.
	var timeline []string
	for _, e := range events.Events() {
		if e.Kind != "breaker" || e.Attr["endpoint"] != ep {
			t.Fatalf("unexpected event %+v", e)
		}
		timeline = append(timeline, e.Attr["to"])
	}
	if got, want := strings.Join(timeline, " "), "open half-open open half-open closed"; got != want {
		t.Fatalf("breaker timeline = %q, want %q", got, want)
	}
}

// TestBreakerHalfOpenAdmitsSingleProbe: during the half-open window
// exactly one caller may probe; the rest keep failing fast.
func TestBreakerHalfOpenAdmitsSingleProbe(t *testing.T) {
	clk := &fakeClock{now: time.Unix(2000, 0)}
	probeStarted := make(chan struct{})
	release := make(chan struct{})
	var dials atomic.Int32
	p := NewPool(
		WithDialer(func(context.Context, string) (net.Conn, error) {
			if dials.Add(1) > 1 {
				close(probeStarted)
				<-release
			}
			return nil, errors.New("down")
		}),
		withBreakerPolicy(BreakerPolicy{Threshold: 1, Cooldown: time.Second}),
		WithPoolClock(clk.Now),
	)
	defer p.Close()

	ep := "loop:half-open"
	if _, err := p.Get(context.Background(), ep); err == nil {
		t.Fatal("first Get must fail")
	}
	clk.Advance(2 * time.Second)

	probeErr := make(chan error, 1)
	go func() {
		_, err := p.Get(context.Background(), ep)
		probeErr <- err
	}()
	<-probeStarted
	// Probe is parked inside its dial; everyone else must fail fast.
	if _, err := p.Get(context.Background(), ep); !errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("err while probe in flight = %v, want ErrCircuitOpen", err)
	}
	close(release)
	if err := <-probeErr; err == nil || errors.Is(err, ErrCircuitOpen) {
		t.Fatalf("probe err = %v, want the dial error", err)
	}
}

// TestWriteDeadlineUnwedgesStuckPeer: a peer that accepts the
// connection but never reads must not wedge writeMu forever — the
// context deadline bounds the write, and the connection is declared
// dead for all users.
func TestWriteDeadlineUnwedgesStuckPeer(t *testing.T) {
	us, them := net.Pipe()
	defer them.Close()
	c := newClientConn("pipe:stuck", us)
	defer c.Close()

	big := make([]byte, 1<<16) // larger than any pipe buffering
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, &Request{Service: "s", Op: "o", Body: big})
		done <- err
	}()
	select {
	case err := <-done:
		if err == nil {
			t.Fatal("write against a stuck peer must fail")
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Call wedged on a stuck peer despite its deadline")
	}

	// The poisoned connection must fail subsequent calls immediately,
	// not strand them behind writeMu.
	ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel2()
	if _, err := c.Call(ctx2, &Request{Service: "s", Op: "o"}); err == nil {
		t.Fatal("second call on the poisoned connection must fail")
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("second call waited out its own deadline (%v): writeMu was wedged", err)
	}
}

// partialWriteConn fails its first write part-way, the way a write
// deadline expiring mid-frame does: it passes the first cut bytes on
// and reports an error. It counts the bytes passed on after that.
type partialWriteConn struct {
	net.Conn
	cut    int
	failed chan struct{} // closed by the failing write

	mu    sync.Mutex
	after int
}

func (c *partialWriteConn) Write(p []byte) (int, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	select {
	case <-c.failed:
		n, err := c.Conn.Write(p)
		c.after += n
		return n, err
	default:
	}
	n, _ := c.Conn.Write(p[:c.cut])
	close(c.failed)
	return n, os.ErrDeadlineExceeded
}

// TestFailedResponseWriteClosesConn: a response write that fails
// part-way leaves half a frame on the stream, so the server must close
// the connection rather than write the next response behind it, where
// the client would read it misaligned — as part of the broken reply, or
// as a reply to the wrong call. The call still pending when the
// connection breaks ends with ErrClientClosed.
func TestFailedResponseWriteClosesConn(t *testing.T) {
	clientEnd, serverEnd := net.Pipe()
	defer clientEnd.Close()
	defer serverEnd.Close()
	conn := &partialWriteConn{Conn: serverEnd, cut: frameHeaderLen + 2, failed: make(chan struct{})}

	pendingStarted := make(chan struct{})
	s := quietServer()
	defer s.Close()
	if err := s.Register("svc", HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
		if req.Op == "Pending" {
			// Answer only after the other reply's write has failed.
			close(pendingStarted)
			<-conn.failed
		}
		return &Response{Status: StatusOK, Body: []byte(req.Op)}
	})); err != nil {
		t.Fatal(err)
	}
	served := make(chan struct{})
	s.wg.Add(1)
	go func() {
		s.serveConn(conn)
		close(served)
	}()

	c := newClientConn("pipe:partial-write", clientEnd)
	defer c.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	pending := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, &Request{Service: "svc", Op: "Pending"})
		pending <- err
	}()
	<-pendingStarted
	if _, err := c.Call(ctx, &Request{Service: "svc", Op: "Broken"}); !errors.Is(err, ErrClientClosed) {
		t.Errorf("call whose reply broke off = %v, want ErrClientClosed", err)
	}
	if err := <-pending; !errors.Is(err, ErrClientClosed) {
		t.Errorf("pending call = %v, want ErrClientClosed", err)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("the server kept serving the connection")
	}
	conn.mu.Lock()
	defer conn.mu.Unlock()
	if conn.after != 0 {
		t.Fatalf("%d bytes were written behind the half-written frame", conn.after)
	}
}

// discardConn is an always-succeeding in-memory net.Conn for fault
// determinism tests.
type discardConn struct{ net.Conn }

func (discardConn) Read(p []byte) (int, error)  { return len(p), nil }
func (discardConn) Write(p []byte) (int, error) { return len(p), nil }
func (discardConn) Close() error                { return nil }

// TestFaultNetDeterminism: the same seed and the same operation
// sequence must produce the identical fault schedule.
func TestFaultNetDeterminism(t *testing.T) {
	cfg := FaultConfig{
		Seed:        99,
		ResetProb:   0.2,
		DropProb:    0.2,
		CorruptProb: 0.2,
	}
	runSchedule := func() FaultStats {
		f := NewFaultNet(cfg, func(context.Context, string) (net.Conn, error) { return discardConn{}, nil })
		buf := make([]byte, 64)
		for i := 0; i < 20; i++ {
			conn, err := f.Dial(context.Background(), "loop:determinism")
			if err != nil {
				continue
			}
			for j := 0; j < 10; j++ {
				_, _ = conn.Write(buf)
				_, _ = conn.Read(buf)
			}
		}
		return f.Stats()
	}
	a, b := runSchedule(), runSchedule()
	if a != b {
		t.Fatalf("same seed, different schedules:\n%+v\n%+v", a, b)
	}
	if a.Resets == 0 || a.Drops == 0 || a.Corruptions == 0 {
		t.Fatalf("schedule injected nothing: %+v", a)
	}
}

// TestFaultNetDialErrors: injected dial failures carry
// ErrInjectedFault and are counted.
func TestFaultNetDialErrors(t *testing.T) {
	f := NewFaultNet(FaultConfig{Seed: 3, DialErrorProb: 1},
		func(context.Context, string) (net.Conn, error) { return discardConn{}, nil })
	if _, err := f.Dial(context.Background(), "loop:x"); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("err = %v, want ErrInjectedFault", err)
	}
	if s := f.Stats(); s.Dials != 1 || s.DialErrors != 1 {
		t.Fatalf("stats = %+v", s)
	}
}

// closeTrackConn observes Close for partition tests.
type closeTrackConn struct {
	discardConn
	closed atomic.Bool
}

func (c *closeTrackConn) Close() error { c.closed.Store(true); return nil }

// TestFaultNetBlockPartitions: Block fails new dials to the endpoint
// deterministically and severs live connections; Unblock heals.
func TestFaultNetBlockPartitions(t *testing.T) {
	live := &closeTrackConn{}
	f := NewFaultNet(FaultConfig{Seed: 5},
		func(context.Context, string) (net.Conn, error) { return live, nil })
	conn, err := f.Dial(context.Background(), "loop:a")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.Dial(context.Background(), "loop:b"); err != nil {
		t.Fatal(err)
	}

	f.Block("loop:a")
	if !live.closed.Load() {
		t.Fatal("Block left the live connection to the endpoint open")
	}
	if _, err := f.Dial(context.Background(), "loop:a"); !errors.Is(err, ErrInjectedFault) {
		t.Fatalf("dial to blocked endpoint = %v, want ErrInjectedFault", err)
	}
	if _, err := f.Dial(context.Background(), "loop:b"); err != nil {
		t.Fatalf("unrelated endpoint caught the partition: %v", err)
	}

	f.Unblock("loop:a")
	if _, err := f.Dial(context.Background(), "loop:a"); err != nil {
		t.Fatalf("dial after Unblock = %v", err)
	}
	_ = conn.Close()
}

// TestPoolSurvivesFaultyTransport: a pool dialing through an
// aggressive FaultNet still completes every idempotent call, by
// retrying past resets and corruption.
func TestPoolSurvivesFaultyTransport(t *testing.T) {
	_, bound := startServer(t, "loop:chaos-pool", map[string]Handler{"echo": echoHandler()})
	// Resets only: every reset surfaces as an error, so retries always
	// see the failure. (A corrupted payload byte can pass undetected —
	// the frame layer has no checksum — so corruption recovery is not a
	// guarantee this test could assert.)
	f := NewFaultNet(FaultConfig{Seed: 11, ResetProb: 0.05}, DialConnContext)
	p := NewPool(
		WithDialer(f.Dial),
		WithCallPolicy(CallPolicy{
			MaxAttempts:    8,
			AttemptTimeout: time.Second,
		}),
		// Plenty of headroom: injected faults must not strand the
		// endpoint behind an open breaker for this workload.
		withBreakerPolicy(BreakerPolicy{Threshold: 100, Cooldown: 10 * time.Millisecond}),
	)
	defer p.Close()

	ctx := context.Background()
	for i := 0; i < 40; i++ {
		body, err := p.Call(ctx, bound, &Request{Service: "echo", Op: "N", Body: []byte{byte(i)}})
		if err != nil {
			t.Fatalf("call %d failed despite retries: %v", i, err)
		}
		if want := append([]byte("N:"), byte(i)); string(body) != string(want) {
			t.Fatalf("call %d body = %q, want %q", i, body, want)
		}
	}
	if s := f.Stats(); s.Resets == 0 {
		t.Logf("note: schedule injected no resets (stats %+v)", s)
	}
}
