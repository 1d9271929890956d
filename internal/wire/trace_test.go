package wire

import (
	"bytes"
	"context"
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"cosm/internal/obs"
)

func TestFrameMetaCodec(t *testing.T) {
	// Untraced requests collapse to a single zero byte.
	if got := appendFrameMeta(nil, "", ""); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("empty meta = %v", got)
	}
	// Oversized IDs are dropped, not truncated into garbage.
	if got := appendFrameMeta(nil, strings.Repeat("x", 200), "p"); !bytes.Equal(got, []byte{0}) {
		t.Fatalf("oversized meta = %v", got)
	}

	meta := appendFrameMeta(nil, "trace-1", "span-1")
	if int(meta[0]) != len(meta)-1 {
		t.Fatalf("section length byte = %d, body = %d", meta[0], len(meta)-1)
	}
	traceID, parentID, err := decodeFrameMeta(meta[1:])
	if err != nil || traceID != "trace-1" || parentID != "span-1" {
		t.Fatalf("decode = %q %q %v", traceID, parentID, err)
	}

	// Trailing bytes are tolerated for forward compatibility...
	withTrailer := append(append([]byte{}, meta[1:]...), 0xAA, 0xBB)
	if traceID, _, err = decodeFrameMeta(withTrailer); err != nil || traceID != "trace-1" {
		t.Fatalf("trailered decode = %q %v", traceID, err)
	}
	// ...but truncation inside an ID is a framing error.
	if _, _, err = decodeFrameMeta(meta[1 : len(meta)-3]); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("truncated decode err = %v", err)
	}
	if _, _, err = decodeFrameMeta([]byte{5}); !errors.Is(err, ErrBadFrame) {
		t.Fatalf("short decode err = %v", err)
	}
}

// The trace metadata matrix: trace metadata survives a request round
// trip, is absent-but-harmless on untraced requests, and response
// frames have no section to carry it.
func TestFrameVersionTraceMatrix(t *testing.T) {
	cases := []struct {
		name       string
		in         frame
		wantTrace  string
		wantParent string
	}{
		{"v2 traced", frame{ftype: frameRequest, id: 1, ttl: 50, traceID: "t1", parentID: "s1", payload: "p"}, "t1", "s1"},
		{"v2 untraced", frame{ftype: frameRequest, id: 2, ttl: 50, payload: "p"}, "", ""},
		{"v2 response no meta", frame{ftype: frameResponse, id: 5, traceID: "t1", payload: "p"}, "", ""},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := roundTrip(t, &c.in)
			if got.traceID != c.wantTrace || got.parentID != c.wantParent {
				t.Fatalf("trace = %q/%q, want %q/%q", got.traceID, got.parentID, c.wantTrace, c.wantParent)
			}
			if got.id != c.in.id || got.payload != c.in.payload {
				t.Fatalf("round trip = %+v", got)
			}
		})
	}
}

// A trace in the caller's context crosses the wire and surfaces as a
// child span in the handler's context: same trace ID, new span,
// parented at the caller's span.
func TestTracePropagatesToHandler(t *testing.T) {
	seen := make(chan obs.Trace, 1)
	h := HandlerFunc(func(ctx context.Context, _ string, _ *Request) *Response {
		seen <- obs.TraceFrom(ctx)
		return &Response{Status: StatusOK}
	})
	_, bound := startServer(t, "loop:trace-prop", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), root)
	if _, err := c.Call(ctx, &Request{Service: "svc", Op: "X"}); err != nil {
		t.Fatal(err)
	}
	got := <-seen
	if got.ID != root.ID {
		t.Fatalf("handler trace ID = %q, want %q", got.ID, root.ID)
	}
	if got.Parent != root.Span || got.Span == root.Span || got.Span == "" {
		t.Fatalf("handler span = %+v, want child of %+v", got, root)
	}

	// An untraced call leaves the handler context untraced.
	if _, err := c.Call(context.Background(), &Request{Service: "svc", Op: "X"}); err != nil {
		t.Fatal(err)
	}
	if got := <-seen; got.Valid() {
		t.Fatalf("untraced call produced trace %+v", got)
	}
}

// Error responses generated before dispatch echo the trace ID so a
// failing caller can name the trace without any server-side log access.
func TestErrorResponseEchoesTrace(t *testing.T) {
	_, bound := startServer(t, "loop:trace-echo", map[string]Handler{"svc": echoHandler()})
	conn, err := DialConnContext(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// ttl=1µs is expired on arrival → StatusDeadlineExpired with echo.
	req := &Request{Service: "svc", Op: "X"}
	if err := sendFrame(conn, &frame{ftype: frameRequest, id: 3, ttl: 1, traceID: "feedface", parentID: "beef", req: req}); err != nil {
		t.Fatal(err)
	}
	if rep := readReply(t, conn); rep.status != StatusDeadlineExpired || !strings.Contains(rep.msg, "[trace feedface]") {
		t.Fatalf("reply = %+v, want deadline-expired with trace echo", rep)
	}
}

// syncBuffer is a mutex-guarded buffer: the access log line is written
// by the server's dispatch goroutine, which may still be running when
// the client call returns.
type syncBuffer struct {
	mu sync.Mutex
	b  strings.Builder
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// waitFor polls until the buffer contains want or the deadline passes.
func (s *syncBuffer) waitFor(want string) bool {
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		if strings.Contains(s.String(), want) {
			return true
		}
	}
	return false
}

// The structured server logger emits one event=rpc access line per
// request, tagged with the propagated trace.
func TestServerAccessLog(t *testing.T) {
	var buf syncBuffer
	logger := obs.NewLogger(&buf, "testsrv")
	s := NewServer(WithServerLogger(logger))
	if err := s.Register("svc", echoHandler()); err != nil {
		t.Fatal(err)
	}
	bound, err := s.ListenAndServe("loop:trace-accesslog")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	root := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), root)
	if _, err := c.Call(ctx, &Request{Service: "svc", Op: "Ping"}); err != nil {
		t.Fatal(err)
	}
	if !buf.waitFor("event=rpc") {
		t.Fatalf("no rpc access line: %s", buf.String())
	}
	out := buf.String()
	for _, want := range []string{"op=svc/Ping", "status=ok", "trace=" + root.ID} {
		if !strings.Contains(out, want) {
			t.Errorf("access log missing %q: %s", want, out)
		}
	}
}

// Client and server metric families record calls, statuses, latency
// and connection reuse across a pool-driven exchange.
func TestClientServerMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	s := NewServer(WithServerLog(func(string, ...any) {}), WithServerMetrics(reg))
	if err := s.Register("svc", echoHandler()); err != nil {
		t.Fatal(err)
	}
	bound, err := s.ListenAndServe("loop:metrics-e2e")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pool := NewPool(WithPoolMetrics(reg))
	defer pool.Close()
	for i := 0; i < 3; i++ {
		if _, err := pool.Call(context.Background(), bound, &Request{Service: "svc", Op: "Ping"}); err != nil {
			t.Fatal(err)
		}
	}
	// A remote error still counts as an attempt, under its status label.
	if _, err := pool.Call(context.Background(), bound, &Request{Service: "ghost", Op: "X"}); err == nil {
		t.Fatal("ghost service call succeeded")
	}

	calls := pool.m.status.Snapshot()
	if calls["ok"] != 3 || calls["no_such_service"] != 1 {
		t.Fatalf("client calls = %v", calls)
	}
	lat := pool.m.latency.Snapshot()[bound]
	if lat.Count != 4 {
		t.Fatalf("latency count = %d, want 4", lat.Count)
	}
	// A handler goroutine leaves the in-flight gauge after its reply is
	// written, so the caller can read the reply first; Close returns once
	// every handler goroutine has exited.
	_ = s.Close()
	// One dial, the rest reused.
	var prom strings.Builder
	reg.WritePrometheus(&prom)
	for _, want := range []string{
		"cosm_client_dials_total 1",
		"cosm_client_conn_reuse_total 3",
		`cosm_server_responses_total{status="ok"} 3`,
		`cosm_server_responses_total{status="no_such_service"} 1`,
		`cosm_server_request_seconds_count{op="svc/Ping"} 3`,
		"cosm_server_inflight_requests 0",
	} {
		if !strings.Contains(prom.String(), want) {
			t.Errorf("exposition missing %q", want)
		}
	}

	// Instruments bound to a nil registry are inert end to end.
	nilC := bindPoolMetrics(nil)
	nilC.observeAttempt("x", time.Now(), nil)
	nilC.sheds.Inc()
	if n := len(nilC.status.Snapshot()); n != 0 || nilC.sheds.Value() != 0 {
		t.Fatalf("nil-registry instruments recorded: %d statuses, %d sheds", n, nilC.sheds.Value())
	}
	nilS := bindServerMetrics(nil)
	nilS.latency.With("x").Observe(1)
	nilS.inflight.Add(1)
}

// Breaker transitions surface through the notify hook:
// closed → open → half-open → closed.
func TestBreakerTransitionNotify(t *testing.T) {
	var got []BreakerState
	b := NewBreaker(BreakerPolicy{Threshold: 2, Cooldown: 10 * time.Millisecond})
	b.onTransition = func(to BreakerState) { got = append(got, to) }

	now := time.Now()
	b.Failure(now)
	b.Failure(now) // trips open
	if err := b.Allow(now.Add(20 * time.Millisecond)); err != nil {
		t.Fatalf("probe not admitted after cooldown: %v", err)
	}
	b.Success() // half-open probe succeeds → closed
	want := []BreakerState{BreakerOpen, BreakerHalfOpen, BreakerClosed}
	if len(got) != len(want) {
		t.Fatalf("transitions = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("transitions = %v, want %v", got, want)
		}
	}
}

// TestRoundTripAllocsNilRegistry pins what one Pool.Call round trip on
// loop: allocates — client and server side together — with no registry,
// recorder or logger bound. It was 35 while every frame was read with
// unbuffered reads into fresh header arrays, copied twice on write and
// waited for on a fresh channel; with buffered reads, pooled write
// buffers and pooled reply channels it was 24; with the reply read into
// one string and handed over by value, not as a fresh *Response, it was
// 23; with the request read into one string too, its service and op
// windows of it, and its request, response and handler goroutine state
// pooled, it was 18; with loop: connections of byte queues, on which a
// write deadline arms no timer (net.Pipe's armed one per set, and each
// frame write sets two), it is 14. Instruments bound to a nil registry
// must stay free.
func TestRoundTripAllocsNilRegistry(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are exact only without the race detector")
	}
	_, bound := startServer(t, "loop:allocs", map[string]Handler{"echo": echoHandler()})
	p := NewPool()
	defer p.Close()
	req := &Request{Service: "echo", Op: "N", Body: []byte("payload")}
	call := func() {
		if _, err := p.Call(context.Background(), bound, req); err != nil {
			t.Fatal(err)
		}
	}
	call() // dial outside the measurement
	if got := testing.AllocsPerRun(500, call); got != 14 {
		t.Fatalf("round trip allocates %v, want 14", got)
	}
}
