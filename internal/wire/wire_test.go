package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func quietServer() *Server {
	return NewServer(WithServerLog(func(string, ...any) {}))
}

// echoHandler returns the request body with the op name prepended.
func echoHandler() Handler {
	return HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
		body := append([]byte(req.Op+":"), req.Body...)
		return &Response{Status: StatusOK, Body: body}
	})
}

func startServer(t *testing.T, endpoint string, services map[string]Handler) (*Server, string) {
	t.Helper()
	s := quietServer()
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

func TestCallOverBothTransports(t *testing.T) {
	for _, endpoint := range []string{"tcp:127.0.0.1:0", "loop:call-test"} {
		t.Run(endpoint, func(t *testing.T) {
			_, bound := startServer(t, endpoint, map[string]Handler{"echo": echoHandler()})
			c, err := Dial(bound)
			if err != nil {
				t.Fatal(err)
			}
			defer c.Close()
			body, err := c.Call(context.Background(), &Request{Service: "echo", Op: "Ping", Body: []byte("hello")})
			if err != nil {
				t.Fatal(err)
			}
			if string(body) != "Ping:hello" {
				t.Fatalf("body = %q", body)
			}
		})
	}
}

func TestCallUnknownService(t *testing.T) {
	_, bound := startServer(t, "loop:unknown-svc", map[string]Handler{"echo": echoHandler()})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), &Request{Service: "nope", Op: "X"})
	if !errors.Is(err, ErrRemote) {
		t.Fatalf("err = %v, want ErrRemote", err)
	}
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusNoService {
		t.Fatalf("err = %v, want StatusNoService", err)
	}
}

func TestCallAppError(t *testing.T) {
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		return &Response{Status: StatusAppError, ErrMsg: "car not available"}
	})
	_, bound := startServer(t, "loop:app-err", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	_, err = c.Call(context.Background(), &Request{Service: "svc", Op: "Book"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusAppError || !strings.Contains(re.Msg, "car not available") {
		t.Fatalf("err = %v", err)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	// Handlers sleep inversely to their index; responses must still be
	// correlated correctly over the single shared connection.
	h := HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
		if len(req.Body) > 0 && req.Body[0]%2 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return &Response{Status: StatusOK, Body: req.Body}
	})
	_, bound := startServer(t, "loop:mux", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			want := []byte{byte(i)}
			got, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Echo", Body: want})
			if err != nil {
				errs[i] = err
				return
			}
			if !bytes.Equal(got, want) {
				errs[i] = fmt.Errorf("got %v, want %v", got, want)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("call %d: %v", i, err)
		}
	}
}

func TestCallContextCancel(t *testing.T) {
	block := make(chan struct{})
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		<-block
		return &Response{Status: StatusOK}
	})
	_, bound := startServer(t, "loop:cancel", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	defer close(block)

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Millisecond)
	defer cancel()
	_, err = c.Call(ctx, &Request{Service: "svc", Op: "Slow"})
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("err = %v, want DeadlineExceeded", err)
	}
}

func TestServerCloseFailsInFlightCalls(t *testing.T) {
	started := make(chan struct{}, 1)
	block := make(chan struct{})
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		started <- struct{}{}
		<-block
		return &Response{Status: StatusOK}
	})
	srv, bound := startServer(t, "loop:srv-close", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Slow"})
		done <- err
	}()
	<-started
	close(block) // let the handler finish so server Close can drain
	_ = srv.Close()
	err = <-done
	// Depending on timing the call either completed before the close or
	// failed with a closed-client error; it must not hang or panic.
	if err != nil && !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestClientCloseFailsPendingCalls(t *testing.T) {
	block := make(chan struct{})
	defer close(block)
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		<-block
		return &Response{Status: StatusOK}
	})
	_, bound := startServer(t, "loop:cli-close", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Slow"})
		done <- err
	}()
	time.Sleep(5 * time.Millisecond) // let the call get pending
	_ = c.Close()
	if err := <-done; !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v, want ErrClientClosed", err)
	}
	// Calls after Close fail immediately.
	if _, err := c.Call(context.Background(), &Request{Service: "svc", Op: "X"}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("post-close err = %v", err)
	}
}

func TestRegisterErrors(t *testing.T) {
	s := quietServer()
	defer s.Close()
	if err := s.Register("a", echoHandler()); err != nil {
		t.Fatal(err)
	}
	if err := s.Register("a", echoHandler()); !errors.Is(err, ErrServiceExists) {
		t.Fatalf("dup register err = %v", err)
	}
	if err := s.Register("", echoHandler()); err == nil {
		t.Fatal("empty name must fail")
	}
	if err := s.Register("b", nil); err == nil {
		t.Fatal("nil handler must fail")
	}
	if len(s.services) != 1 || s.services["a"] == nil {
		t.Fatalf("services = %v", s.services)
	}
}

func TestLoopbackNameCollision(t *testing.T) {
	ln, err := listen("loop:collide")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	if _, err := listen("loop:collide"); !errors.Is(err, ErrLoopInUse) {
		t.Fatalf("err = %v, want ErrLoopInUse", err)
	}
}

func TestDialUnknownLoopback(t *testing.T) {
	if _, err := Dial("loop:ghost-endpoint"); !errors.Is(err, ErrLoopUnknown) {
		t.Fatalf("err = %v, want ErrLoopUnknown", err)
	}
}

func TestBadEndpoints(t *testing.T) {
	for _, ep := range []string{"", "tcp", ":x", "tcp:", "udp:127.0.0.1:1"} {
		if _, err := listen(ep); err == nil {
			t.Fatalf("listen(%q) succeeded", ep)
		}
		if _, err := DialConnContext(context.Background(), ep); err == nil {
			t.Fatalf("DialConnContext(%q) succeeded", ep)
		}
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	in := frame{ftype: frameRequest, id: 42, payload: []byte("payload")}
	if err := writeFrame(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := readFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if out.ftype != in.ftype || out.id != in.id || !bytes.Equal(out.payload, in.payload) {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

func TestFrameErrors(t *testing.T) {
	t.Run("oversize write", func(t *testing.T) {
		var buf bytes.Buffer
		err := writeFrame(&buf, frame{ftype: frameRequest, payload: make([]byte, MaxFramePayload+1)})
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		data := make([]byte, frameHeaderLen)
		copy(data, "XX")
		if _, err := readFrame(bytes.NewReader(data)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad version", func(t *testing.T) {
		// Frames have exactly one version: older and newer are malformed.
		for _, v := range []byte{0, protoVersion - 1, protoVersion + 1, 99} {
			data := make([]byte, frameHeaderLen)
			copy(data, "CW")
			data[2] = v
			data[3] = frameRequest
			if _, err := readFrame(bytes.NewReader(data)); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("version %d: err = %v", v, err)
			}
		}
	})
	t.Run("bad type", func(t *testing.T) {
		data := make([]byte, frameHeaderLen)
		copy(data, "CW")
		data[2] = protoVersion
		data[3] = 7
		if _, err := readFrame(bytes.NewReader(data)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{ftype: frameRequest, id: 1, payload: []byte("abcdef")}); err != nil {
			t.Fatal(err)
		}
		data := buf.Bytes()[:buf.Len()-2]
		if _, err := readFrame(bytes.NewReader(data)); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestRequestResponseCodecs(t *testing.T) {
	req := &Request{Service: "CarRentalService", Op: "SelectCar", Body: []byte{1, 2, 3}}
	got, err := decodeRequest(encodeRequest(req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != req.Service || got.Op != req.Op || !bytes.Equal(got.Body, req.Body) {
		t.Fatalf("request round trip: %+v", got)
	}
	resp := &Response{Status: StatusProtocol, ErrMsg: "illegal op", Body: []byte("x"), RetryAfter: 40 * time.Millisecond}
	gotR, err := decodeResponse(encodeResponse(resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotR.Status != resp.Status || gotR.ErrMsg != resp.ErrMsg || !bytes.Equal(gotR.Body, resp.Body) || gotR.RetryAfter != resp.RetryAfter {
		t.Fatalf("response round trip: %+v", gotR)
	}
	// Malformed inputs.
	if _, err := decodeRequest(nil); err == nil {
		t.Fatal("decodeRequest(nil) must fail")
	}
	if _, err := decodeResponse(nil); err == nil {
		t.Fatal("decodeResponse(nil) must fail")
	}
	if _, err := decodeResponse([]byte{99, 0}); err == nil {
		t.Fatal("bad status must fail")
	}
}

func TestPoolReusesClients(t *testing.T) {
	_, bound := startServer(t, "loop:pool", map[string]Handler{"echo": echoHandler()})
	p := NewPool()
	defer p.Close()
	c1, err := p.Get(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := p.Get(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	if c1 != c2 {
		t.Fatal("pool must reuse the client")
	}
	// A broken client is replaced on the next Get.
	_ = c1.Close()
	c3, err := p.Get(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	if c3 == c1 {
		t.Fatal("pool must replace a closed client")
	}
	if _, err := c3.Call(context.Background(), &Request{Service: "echo", Op: "Hi"}); err != nil {
		t.Fatal(err)
	}
	p.drop(bound)
	if _, err := c3.Call(context.Background(), &Request{Service: "echo", Op: "Hi"}); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("dropped client err = %v", err)
	}
}

func TestPoolClosed(t *testing.T) {
	p := NewPool()
	_ = p.Close()
	if _, err := p.Get(context.Background(), "loop:whatever"); !errors.Is(err, ErrClientClosed) {
		t.Fatalf("err = %v", err)
	}
}

func TestGroupBroadcast(t *testing.T) {
	var hits atomic.Int32
	mk := func(name string) string {
		h := HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
			hits.Add(1)
			return &Response{Status: StatusOK, Body: []byte(name)}
		})
		_, bound := startServer(t, "loop:grp-"+name, map[string]Handler{"svc": h})
		return bound
	}
	eps := []string{mk("a"), mk("b"), mk("c")}

	p := NewPool()
	defer p.Close()
	g := NewGroup(p)
	for _, ep := range eps {
		g.Join(ep)
	}
	g.Join(eps[0]) // idempotent
	g.Join("loop:grp-missing")
	if g.Size() != 4 {
		t.Fatalf("Size = %d", g.Size())
	}

	results := g.Broadcast(context.Background(), &Request{Service: "svc", Op: "Ping"})
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	okCount, errCount := 0, 0
	for _, r := range results {
		if r.Err != nil {
			errCount++
		} else {
			okCount++
		}
	}
	if okCount != 3 || errCount != 1 {
		t.Fatalf("ok=%d err=%d", okCount, errCount)
	}
	if got := hits.Load(); got != 3 {
		t.Fatalf("hits = %d", got)
	}

	g.Leave("loop:grp-missing")
	if g.Size() != 3 {
		t.Fatalf("Size after Leave = %d", g.Size())
	}
}

func TestGroupAnycast(t *testing.T) {
	h := HandlerFunc(func(_ context.Context, _ string, _ *Request) *Response {
		return &Response{Status: StatusOK, Body: []byte("pong")}
	})
	_, bound := startServer(t, "loop:any-ok", map[string]Handler{"svc": h})

	p := NewPool()
	defer p.Close()
	g := NewGroup(p)
	g.Join("loop:any-missing") // sorts before any-ok; must be skipped
	g.Join(bound)
	body, err := g.Anycast(context.Background(), &Request{Service: "svc", Op: "Ping"})
	if err != nil || string(body) != "pong" {
		t.Fatalf("Anycast = %q, %v", body, err)
	}

	empty := NewGroup(p)
	if _, err := empty.Anycast(context.Background(), &Request{Service: "svc", Op: "Ping"}); err == nil {
		t.Fatal("empty group Anycast must fail")
	}
}

func TestGarbageBytesToServer(t *testing.T) {
	_, bound := startServer(t, "loop:garbage", map[string]Handler{"echo": echoHandler()})
	conn, err := DialConnContext(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	rng := rand.New(rand.NewSource(1))
	junk := make([]byte, 64)
	rng.Read(junk)
	// The write may itself fail once the server rejects the stream and
	// closes the synchronous pipe; only the server's health matters here.
	_, _ = conn.Write(junk)
	// The server must drop the connection, not crash: a subsequent good
	// client still works.
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), &Request{Service: "echo", Op: "Ok"}); err != nil {
		t.Fatal(err)
	}
}

func TestServeTwiceFails(t *testing.T) {
	s := quietServer()
	defer s.Close()
	if _, err := s.ListenAndServe("loop:serve-twice"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.ListenAndServe("loop:serve-twice-b"); err == nil {
		t.Fatal("second Serve must fail")
	}
	if s.Endpoint() != "loop:serve-twice" {
		t.Fatalf("Endpoint = %q", s.Endpoint())
	}
}

// Property: request and response payload codecs round-trip arbitrary
// field contents.
func TestRequestCodecProperty(t *testing.T) {
	f := func(service, op string, body []byte) bool {
		if len(service) > maxNameLen || len(op) > maxNameLen {
			return true
		}
		req := &Request{Service: service, Op: op, Body: body}
		got, err := decodeRequest(encodeRequest(req))
		if err != nil {
			return false
		}
		return got.Service == service && got.Op == op && bytes.Equal(got.Body, body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponseCodecProperty(t *testing.T) {
	f := func(status uint8, msg string, body []byte, retryMillis uint16) bool {
		s := Status(status%8) + StatusOK
		resp := &Response{Status: s, ErrMsg: msg, Body: body, RetryAfter: time.Duration(retryMillis) * time.Millisecond}
		got, err := decodeResponse(encodeResponse(resp))
		if err != nil {
			return false
		}
		return got.Status == s && got.ErrMsg == msg && bytes.Equal(got.Body, body) && got.RetryAfter == resp.RetryAfter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: frames of arbitrary payloads round-trip through the framing
// layer.
func TestFrameCodecProperty(t *testing.T) {
	f := func(ftype bool, id uint64, payload []byte) bool {
		ft := byte(frameRequest)
		if ftype {
			ft = frameResponse
		}
		var buf bytes.Buffer
		if err := writeFrame(&buf, frame{ftype: ft, id: id, payload: payload}); err != nil {
			return false
		}
		got, err := readFrame(&buf)
		if err != nil {
			return false
		}
		return got.ftype == ft && got.id == id && bytes.Equal(got.payload, payload)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
