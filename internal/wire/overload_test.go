package wire

import (
	"bytes"
	"context"
	"errors"
	"io"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func quietServerWith(p AdmissionPolicy) *Server {
	return NewServer(WithServerLog(func(string, ...any) {}), WithAdmission(p))
}

func startServerWith(t *testing.T, endpoint string, p AdmissionPolicy, services map[string]Handler) (*Server, string) {
	t.Helper()
	s := quietServerWith(p)
	for name, h := range services {
		if err := s.Register(name, h); err != nil {
			t.Fatal(err)
		}
	}
	bound, err := s.ListenAndServe(endpoint)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = s.Close() })
	return s, bound
}

// The caller's deadline must surface in the handler's context,
// shortened at most by the propagation itself.
func TestDeadlinePropagatesToHandler(t *testing.T) {
	deadlines := make(chan time.Duration, 1)
	h := HandlerFunc(func(ctx context.Context, _ string, _ *Request) *Response {
		d, ok := ctx.Deadline()
		if !ok {
			deadlines <- 0
		} else {
			deadlines <- time.Until(d)
		}
		return &Response{Status: StatusOK}
	})
	_, bound := startServer(t, "loop:deadline-prop", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := c.Call(ctx, &Request{Service: "svc", Op: "X"}); err != nil {
		t.Fatal(err)
	}
	rem := <-deadlines
	if rem <= 0 || rem > 5*time.Second {
		t.Fatalf("handler saw remaining budget %v, want (0s, 5s]", rem)
	}

	// Without a caller deadline the handler context has none either.
	if _, err := c.Call(context.Background(), &Request{Service: "svc", Op: "X"}); err != nil {
		t.Fatal(err)
	}
	if rem := <-deadlines; rem != 0 {
		t.Fatalf("handler saw deadline %v for an unbounded call", rem)
	}
}

// A request whose propagated deadline has already expired must be
// rejected before dispatch: the handler never runs.
func TestExpiredRequestNeverDispatched(t *testing.T) {
	var executed atomic.Int64
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		executed.Add(1)
		return &Response{Status: StatusOK}
	})
	_, bound := startServer(t, "loop:expired", map[string]Handler{"svc": h})

	// The client refuses an expired context without a round trip...
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx, cancel := context.WithDeadline(context.Background(), time.Now().Add(-time.Second))
	defer cancel()
	if _, err := c.Call(ctx, &Request{Service: "svc", Op: "X"}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}

	// ...and the server independently rejects a frame that arrives with
	// an exhausted TTL (a 1µs budget is expired by the time it is read).
	conn, err := DialConnContext(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := sendFrame(conn, &frame{ftype: frameRequest, id: 7, ttl: 1, req: &Request{Service: "svc", Op: "X"}}); err != nil {
		t.Fatal(err)
	}
	if rep := readReply(t, conn); rep.status != StatusDeadlineExpired {
		t.Fatalf("status = %v, want StatusDeadlineExpired", rep.status)
	}
	if n := executed.Load(); n != 0 {
		t.Fatalf("handler executed %d times for expired requests", n)
	}
}

// Cancelling the client attempt must cancel the server-side context.
func TestClientCancelCancelsServerContext(t *testing.T) {
	started := make(chan struct{})
	cancelled := make(chan error, 1)
	h := HandlerFunc(func(ctx context.Context, _ string, _ *Request) *Response {
		close(started)
		select {
		case <-ctx.Done():
			cancelled <- ctx.Err()
		case <-time.After(5 * time.Second):
			cancelled <- nil
		}
		return &Response{Status: StatusOK}
	})
	_, bound := startServer(t, "loop:cancel-prop", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(ctx, &Request{Service: "svc", Op: "X"})
		done <- err
	}()
	<-started
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("client err = %v, want Canceled", err)
	}
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("server ctx err = %v, want Canceled", err)
	}
}

// Beyond MaxInFlight + MaxQueue the server sheds with StatusOverloaded
// and the configured retry-after hint instead of queueing unboundedly.
func TestShedWhenSaturated(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 16)
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		started <- struct{}{}
		<-release
		return &Response{Status: StatusOK}
	})
	s, bound := startServerWith(t, "loop:shed", AdmissionPolicy{
		MaxInFlight: 2,
		MaxQueue:    0,
		QueueWait:   40 * time.Millisecond,
	}, map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	var wg sync.WaitGroup
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, err := c.Call(context.Background(), &Request{Service: "svc", Op: "X"})
			results <- err
		}()
	}
	<-started
	<-started

	// Both slots busy, no queue: the third call must be shed, promptly.
	_, err = c.Call(context.Background(), &Request{Service: "svc", Op: "X"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusOverloaded {
		t.Fatalf("err = %v, want StatusOverloaded", err)
	}
	if re.RetryAfter != 40*time.Millisecond {
		t.Fatalf("RetryAfter = %v, want 40ms", re.RetryAfter)
	}
	if !Transient(err) {
		t.Fatal("an overloaded shed must classify as transient")
	}

	close(release)
	wg.Wait()
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted call failed: %v", err)
		}
	}
	if st := s.Stats(); st.Shed != 1 || st.Served != 2 {
		t.Fatalf("stats = %+v, want Shed=1 Served=2", st)
	}
}

// A queued request is admitted when a slot frees within QueueWait...
func TestQueueAdmitsWhenSlotFrees(t *testing.T) {
	release := make(chan struct{})
	started := make(chan struct{}, 1)
	h := HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
		if req.Op == "Slow" {
			started <- struct{}{}
			<-release
		}
		return &Response{Status: StatusOK}
	})
	_, bound := startServerWith(t, "loop:queue-ok", AdmissionPolicy{
		MaxInFlight: 1,
		MaxQueue:    4,
		QueueWait:   5 * time.Second,
	}, map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	slow := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Slow"})
		slow <- err
	}()
	<-started

	// This call queues behind Slow; releasing Slow must admit it.
	queued := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Fast"})
		queued <- err
	}()
	time.Sleep(10 * time.Millisecond) // let it reach the queue
	close(release)
	if err := <-queued; err != nil {
		t.Fatalf("queued call failed: %v", err)
	}
	if err := <-slow; err != nil {
		t.Fatalf("slow call failed: %v", err)
	}
}

// ...and shed once its queue wait is exhausted.
func TestQueueWaitExceededSheds(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{}, 1)
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		started <- struct{}{}
		<-release
		return &Response{Status: StatusOK}
	})
	_, bound := startServerWith(t, "loop:queue-shed", AdmissionPolicy{
		MaxInFlight: 1,
		MaxQueue:    4,
		QueueWait:   20 * time.Millisecond,
	}, map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	go func() {
		_, _ = c.Call(context.Background(), &Request{Service: "svc", Op: "Slow"})
	}()
	<-started

	_, err = c.Call(context.Background(), &Request{Service: "svc", Op: "X"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusOverloaded {
		t.Fatalf("err = %v, want StatusOverloaded after queue wait", err)
	}
}

// A panicking handler yields StatusAppError and leaves the daemon --
// and its other services -- alive.
func TestHandlerPanicRecovered(t *testing.T) {
	boom := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		panic("boom")
	})
	s, bound := startServer(t, "loop:panic", map[string]Handler{
		"boom": boom,
		"echo": echoHandler(),
	})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	_, err = c.Call(context.Background(), &Request{Service: "boom", Op: "X"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusAppError {
		t.Fatalf("err = %v, want StatusAppError", err)
	}
	// The server must still serve other requests on the same connection.
	body, err := c.Call(context.Background(), &Request{Service: "echo", Op: "Ping", Body: []byte("alive")})
	if err != nil {
		t.Fatalf("call after panic: %v", err)
	}
	if string(body) != "Ping:alive" {
		t.Fatalf("body = %q", body)
	}
	if st := s.Stats(); st.Panics != 1 {
		t.Fatalf("stats = %+v, want Panics=1", st)
	}
}

// Shutdown drains: in-flight requests finish, new ones are shed.
func TestShutdownDrains(t *testing.T) {
	started := make(chan struct{})
	release := make(chan struct{})
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		close(started)
		<-release
		return &Response{Status: StatusOK, Body: []byte("drained")}
	})
	s := quietServer()
	if err := s.Register("svc", h); err != nil {
		t.Fatal(err)
	}
	bound, err := s.ListenAndServe("loop:drain")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inflight := make(chan error, 1)
	var body string
	go func() {
		var err error
		body, err = c.Call(context.Background(), &Request{Service: "svc", Op: "X"})
		inflight <- err
	}()
	<-started

	shutdownDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutdownDone <- s.Shutdown(ctx)
	}()

	// Wait until the drain is visible, then verify new work is shed.
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	_, err = c.Call(context.Background(), &Request{Service: "svc", Op: "X"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusOverloaded {
		t.Fatalf("call during drain: err = %v, want StatusOverloaded", err)
	}

	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight call failed during drain: %v", err)
	}
	if string(body) != "drained" {
		t.Fatalf("body = %q", body)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
}

// Shutdown must give up when its context expires with work stuck.
func TestShutdownDeadline(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	started := make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, _ string, _ *Request) *Response {
		close(started)
		// Honour ctx (the documented contract): after Shutdown's drain
		// deadline passes, the final Close cancels it and we unwedge.
		select {
		case <-release:
		case <-ctx.Done():
		}
		return &Response{Status: StatusOK}
	})
	s := quietServer()
	if err := s.Register("svc", h); err != nil {
		t.Fatal(err)
	}
	bound, err := s.ListenAndServe("loop:drain-deadline")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	go func() {
		_, _ = c.Call(context.Background(), &Request{Service: "svc", Op: "X"})
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if err := s.Shutdown(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Shutdown = %v, want DeadlineExceeded", err)
	}
}

// Pool.Call must back off at least the server's retry-after hint
// before retrying a shed attempt, and a shed must not trip the breaker.
func TestPoolHonorsRetryAfterHint(t *testing.T) {
	const hint = 60 * time.Millisecond
	var calls atomic.Int64
	var admitted atomic.Bool
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		return &Response{Status: StatusOK}
	})
	// Shed the first attempt ourselves so the hint path is deterministic.
	shedFirst := HandlerFunc(func(ctx context.Context, remote string, req *Request) *Response {
		if calls.Add(1) == 1 {
			return &Response{Status: StatusOverloaded, ErrMsg: "synthetic", RetryAfter: hint}
		}
		admitted.Store(true)
		return h.ServeCOSM(ctx, remote, req)
	})
	_, bound := startServer(t, "loop:retry-after", map[string]Handler{"svc": shedFirst})

	p := NewPool(withBreakerPolicy(BreakerPolicy{Threshold: 1, Cooldown: time.Hour}))
	defer p.Close()
	policy := CallPolicy{MaxAttempts: 2}

	start := time.Now()
	if _, err := p.callWith(context.Background(), bound, &Request{Service: "svc", Op: "X"}, policy); err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	if !admitted.Load() {
		t.Fatal("second attempt never ran")
	}
	if elapsed < hint {
		t.Fatalf("retried after %v, want >= hint %v", elapsed, hint)
	}
	if st := p.Stats(); st.Sheds != 1 {
		t.Fatalf("stats = %+v, want Sheds=1", st)
	}
	// Threshold 1 means a single connection-class failure would have
	// opened the breaker; the shed must not have.
	if state := p.BreakerState(bound); state != BreakerClosed {
		t.Fatalf("breaker = %v after shed, want closed", state)
	}
}

// A shed answer during half-open proves liveness: the circuit closes
// instead of reopening, but the shed does not erase failure history the
// way a success would.
func TestBreakerShedSemantics(t *testing.T) {
	b := NewBreaker(BreakerPolicy{Threshold: 2, Cooldown: time.Second})
	now := time.Unix(0, 0)

	b.Failure(now)
	b.shed()
	if b.State() != BreakerClosed {
		t.Fatalf("state = %v, want closed", b.State())
	}
	// The pre-shed failure still counts: one more failure trips it.
	if opened := b.Failure(now); !opened {
		t.Fatal("second failure must open (shed must not reset the streak)")
	}

	// Half-open probe answered with a shed: close the circuit.
	now = now.Add(2 * time.Second)
	if err := b.Allow(now); err != nil {
		t.Fatalf("allow after cooldown: %v", err)
	}
	if b.State() != BreakerHalfOpen {
		t.Fatalf("state = %v, want half-open", b.State())
	}
	b.shed()
	if b.State() != BreakerClosed {
		t.Fatalf("state after half-open shed = %v, want closed", b.State())
	}
}

// Request frames round-trip their TTL through the framing layer.
func TestFrameTTLRoundTrip(t *testing.T) {
	want := frame{ftype: frameRequest, id: 9, ttl: 123456, payload: "p"}
	got := roundTrip(t, &want)
	if got.ttl != want.ttl || got.id != want.id || got.payload != want.payload {
		t.Fatalf("round trip = %+v", got)
	}

	// Cancel frames carry no payload and no TTL.
	got = roundTrip(t, &frame{ftype: frameCancel, id: 9})
	if got.ftype != frameCancel || got.id != 9 || len(got.payload) != 0 {
		t.Fatalf("cancel round trip = %+v", got)
	}
	// A truncated TTL extension is a framing error, not a hang.
	raw := []byte{'C', 'W', 2, frameRequest, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0, 0, 0, 1, 2}
	if _, err := newFrameReader(bytes.NewReader(raw)).next(); !errors.Is(err, ErrBadFrame) && !errors.Is(err, io.ErrUnexpectedEOF) {
		t.Fatalf("truncated TTL err = %v", err)
	}
}

// ttlOf never returns 0 for a real deadline (0 means "no deadline").
func TestTTLOf(t *testing.T) {
	now := time.Unix(100, 0)
	cases := []struct {
		rem  time.Duration
		want uint64
	}{
		{-time.Second, 1},
		{0, 1},
		{500 * time.Nanosecond, 1},
		{time.Millisecond, 1000},
		{time.Second, 1000000},
	}
	for _, c := range cases {
		if got := ttlOf(now.Add(c.rem), now); got != c.want {
			t.Errorf("ttlOf(+%v) = %d, want %d", c.rem, got, c.want)
		}
	}
}

// Under sustained synthetic overload the goroutine population stays
// bounded by MaxInFlight + MaxQueue rather than growing per request.
func TestOverloadDoesNotAccumulateGoroutines(t *testing.T) {
	release := make(chan struct{})
	defer close(release)
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		<-release
		return &Response{Status: StatusOK}
	})
	s, bound := startServerWith(t, "loop:bounded", AdmissionPolicy{
		MaxInFlight: 2,
		MaxQueue:    2,
		QueueWait:   5 * time.Second,
	}, map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	// Fire many concurrent calls; all but MaxInFlight+MaxQueue must be
	// shed (responded inline without a handler goroutine).
	const n = 40
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Call(context.Background(), &Request{Service: "svc", Op: "X"})
			errs <- err
		}()
	}
	sheds := 0
	deadline := time.After(5 * time.Second)
	for i := 0; i < n-4; i++ {
		select {
		case err := <-errs:
			var re *RemoteError
			if errors.As(err, &re) && re.Status == StatusOverloaded {
				sheds++
			} else {
				t.Fatalf("unexpected result under overload: %v", err)
			}
		case <-deadline:
			t.Fatalf("only %d sheds arrived", sheds)
		}
	}
	if sheds != n-4 {
		t.Fatalf("sheds = %d, want %d", sheds, n-4)
	}
	if st := s.Stats(); st.Shed != uint64(n-4) {
		t.Fatalf("server sheds = %d, want %d", st.Shed, n-4)
	}
}

// Drain hooks run exactly once per server, during Shutdown, after the
// in-flight work has finished — and never on a bare Close.
func TestShutdownRunsDrainHooks(t *testing.T) {
	var order []string
	var mu sync.Mutex
	note := func(what string) {
		mu.Lock()
		order = append(order, what)
		mu.Unlock()
	}

	release := make(chan struct{})
	started := make(chan struct{})
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		close(started)
		<-release
		note("handler")
		return &Response{Status: StatusOK}
	})
	s := quietServer()
	if err := s.Register("svc", h); err != nil {
		t.Fatal(err)
	}
	s.OnDrain(nil) // must be ignored, not panic during Shutdown
	s.OnDrain(func() { note("hook1") })
	s.OnDrain(func() { note("hook2") })
	bound, err := s.ListenAndServe("loop:drain-hooks")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	inflight := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Service: "svc", Op: "X"})
		inflight <- err
	}()
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	shutdownDone := make(chan error, 1)
	go func() { shutdownDone <- s.Shutdown(ctx) }()
	for !s.Draining() {
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	ran := len(order)
	mu.Unlock()
	if ran != 0 {
		t.Fatalf("drain hooks ran before in-flight work finished: %v", order)
	}

	close(release)
	if err := <-inflight; err != nil {
		t.Fatalf("in-flight call: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	mu.Lock()
	got := append([]string(nil), order...)
	mu.Unlock()
	want := []string{"handler", "hook1", "hook2"}
	if len(got) != len(want) {
		t.Fatalf("order = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}

	// A second Shutdown must not re-run the hooks.
	if err := s.Shutdown(context.Background()); err != nil {
		t.Fatalf("second Shutdown: %v", err)
	}
	mu.Lock()
	again := len(order)
	mu.Unlock()
	if again != len(want) {
		t.Fatalf("hooks re-ran on second Shutdown: %v", order)
	}
}

// A bare Close skips the drain hooks: there is no drain, so nothing can
// be flushed safely.
func TestCloseSkipsDrainHooks(t *testing.T) {
	var ran atomic.Int64
	s := quietServer()
	s.OnDrain(func() { ran.Add(1) })
	if _, err := s.ListenAndServe("loop:close-no-hooks"); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("drain hooks ran %d times on bare Close, want 0", n)
	}
}
