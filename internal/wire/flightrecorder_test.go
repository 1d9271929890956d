package wire

import (
	"context"
	"strings"
	"testing"
	"time"

	"cosm/internal/obs"
)

// TestSpansLinkAcrossTheWire: a traced pool call records a client span,
// the handler records a server span, and the server span's parent is
// the client span — the cross-process edge BuildSpanTree links on.
func TestSpansLinkAcrossTheWire(t *testing.T) {
	rec := obs.NewSpanRecorder(64)
	s := NewServer(WithServerLog(func(string, ...any) {}), WithServerRecorder(rec))
	if err := s.Register("svc", echoHandler()); err != nil {
		t.Fatal(err)
	}
	bound, err := s.ListenAndServe("loop:span-link")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()

	pool := NewPool(WithPoolRecorder(rec))
	defer pool.Close()
	root := obs.NewTrace()
	ctx := obs.WithTrace(context.Background(), root)
	if _, err := pool.Call(ctx, bound, &Request{Service: "svc", Op: "X"}); err != nil {
		t.Fatal(err)
	}

	// The server span is recorded asynchronously after the response.
	var client, server *obs.Span
	for deadline := time.Now().Add(2 * time.Second); time.Now().Before(deadline); time.Sleep(2 * time.Millisecond) {
		client, server = nil, nil
		for _, sp := range rec.Trace(root.ID) {
			sp := sp
			switch sp.Kind {
			case obs.SpanClient:
				client = &sp
			case obs.SpanServer:
				server = &sp
			}
		}
		if client != nil && server != nil {
			break
		}
	}
	if client == nil || server == nil {
		t.Fatalf("spans for trace %s = %+v", root.ID, rec.Trace(root.ID))
	}
	if client.Parent != root.Span {
		t.Fatalf("client span parent = %q, want root span %q", client.Parent, root.Span)
	}
	if server.Parent != client.ID {
		t.Fatalf("server span parent = %q, want client span %q", server.Parent, client.ID)
	}
	if client.Op != "svc/X" || client.Status != "ok" || server.Op != "svc/X" || server.Status != "ok" {
		t.Fatalf("span labels: client=%+v server=%+v", client, server)
	}
	if roots := obs.BuildSpanTree(rec.Trace(root.ID)); len(roots) != 1 || len(roots[0].Children) != 1 {
		t.Fatalf("span tree = %+v", roots)
	}

	// Untraced calls record nothing even with a recorder attached.
	if _, err := pool.Call(context.Background(), bound, &Request{Service: "svc", Op: "X"}); err != nil {
		t.Fatal(err)
	}
	if n := len(rec.Snapshot()); n != 2 {
		t.Fatalf("untraced call added spans: %d total", n)
	}
}

// TestSlowRequestWatchdog: a request over the threshold bumps the slow
// counter and emits one structured slow_request line with its trace.
func TestSlowRequestWatchdog(t *testing.T) {
	var buf syncBuffer
	reg := obs.NewRegistry()
	slow := HandlerFunc(func(context.Context, string, *Request) *Response {
		time.Sleep(5 * time.Millisecond)
		return &Response{Status: StatusOK}
	})
	s := NewServer(
		WithServerLogger(obs.NewLogger(&buf, "wiretest")),
		WithServerMetrics(reg),
		WithSlowThreshold(time.Millisecond),
	)
	if err := s.Register("svc", slow); err != nil {
		t.Fatal(err)
	}
	bound, err := s.ListenAndServe("loop:slow-watchdog")
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
	if _, err := c.Call(obs.WithTrace(context.Background(), root), &Request{Service: "svc", Op: "X"}); err != nil {
		t.Fatal(err)
	}

	deadline := time.Now().Add(2 * time.Second)
	for s.m.slow.Value() == 0 && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	if got := s.m.slow.Value(); got != 1 {
		t.Fatalf("slow counter = %d, want 1", got)
	}
	for !strings.Contains(buf.String(), "event=slow_request") && time.Now().Before(deadline) {
		time.Sleep(2 * time.Millisecond)
	}
	line := buf.String()
	if !strings.Contains(line, "event=slow_request") || !strings.Contains(line, "trace="+root.ID) {
		t.Fatalf("slow_request line missing or untraced:\n%s", line)
	}
}
