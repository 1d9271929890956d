package wire

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/iotest"
	"testing/quick"
	"time"
)

func quietServer() *Server {
	return NewServer(WithServerLog(func(string, ...any) {}))
}

// echoHandler returns the request body with the op name prepended.
func echoHandler() Handler {
	return HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
		body := append([]byte(req.Op+":"), req.Received...)
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
		if len(req.Received) > 0 && req.Received[0]%2 == 0 {
			time.Sleep(2 * time.Millisecond)
		}
		return &Response{Status: StatusOK, Body: []byte(req.Received)}
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
			if got != string(want) {
				errs[i] = fmt.Errorf("got %v, want %v", []byte(got), want)
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

// TestReplyChannelsSurviveCancellation: reply channels are pooled and
// reused, but never one whose call was cancelled — its late reply may
// still arrive. Many callers share one client; replies come after
// random delays and callers give up at random, so late replies race
// cancellations. Every call that succeeds returns its own body.
func TestReplyChannelsSurviveCancellation(t *testing.T) {
	h := HandlerFunc(func(ctx context.Context, _ string, req *Request) *Response {
		delay := time.Duration(req.Received[0]) * 4 * time.Microsecond
		select {
		case <-time.After(delay):
		case <-ctx.Done():
		}
		return &Response{Status: StatusOK, Body: []byte(req.Received)}
	})
	_, bound := startServer(t, "loop:reply-chans", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const callers, calls = 16, 150
	var ok, cancelled atomic.Int64
	errs := make(chan error, callers)
	for g := 0; g < callers; g++ {
		go func(g int) {
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < calls; i++ {
				// The first byte sets the handler's delay.
				body := fmt.Appendf([]byte{byte(rng.Intn(256))}, "caller %d call %d", g, i)
				// A cancel, not a deadline: a deadline also bounds the
				// request's write, and a write cut short breaks the
				// connection for every caller.
				ctx, cancel := context.WithCancel(context.Background())
				stop := time.AfterFunc(time.Duration(rng.Intn(1000))*time.Microsecond, cancel)
				got, err := c.Call(ctx, &Request{Service: "svc", Op: "Echo", Body: body})
				stop.Stop()
				cancel()
				switch {
				case err == nil && got != string(body):
					errs <- fmt.Errorf("call %q returned %q", body, got)
					return
				case err == nil:
					ok.Add(1)
				case errors.Is(err, context.Canceled):
					cancelled.Add(1)
				default:
					errs <- fmt.Errorf("call %q: %v", body, err)
					return
				}
			}
			errs <- nil
		}(g)
	}
	for g := 0; g < callers; g++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if ok.Load() == 0 || cancelled.Load() == 0 {
		t.Fatalf("%d calls succeeded and %d were cancelled: the race between them was not run", ok.Load(), cancelled.Load())
	}
}

// TestOversizedReplyFailsAlone: a reply past MaxFramePayload is refused
// before a byte of it is written, so the connection is intact. Its
// caller gets an error that names the limit, and the calls pending on
// the same connection meanwhile are answered. (Closing the connection
// failed all of them with EOF.)
func TestOversizedReplyFailsAlone(t *testing.T) {
	release := make(chan struct{})
	h := HandlerFunc(func(_ context.Context, _ string, req *Request) *Response {
		if req.Op == "Big" {
			return &Response{Status: StatusOK, Body: make([]byte, MaxFramePayload)}
		}
		<-release
		return &Response{Status: StatusOK, Body: []byte(req.Received)}
	})
	_, bound := startServer(t, "loop:oversized-reply", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const bounded = 8
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	var wg sync.WaitGroup
	errs := make(chan error, bounded)
	for i := range bounded {
		wg.Add(1)
		go func() {
			defer wg.Done()
			want := fmt.Sprintf("small %d", i)
			got, err := c.Call(ctx, &Request{Service: "svc", Op: "Small", Body: []byte(want)})
			if err == nil && got != want {
				err = fmt.Errorf("reply %q, want %q", got, want)
			}
			errs <- err
		}()
	}
	// The small calls are pending on the connection once their ids are.
	for {
		c.mu.Lock()
		n := len(c.pending)
		c.mu.Unlock()
		if n == bounded {
			break
		}
		time.Sleep(time.Millisecond)
	}
	_, err = c.Call(ctx, &Request{Service: "svc", Op: "Big"})
	var re *RemoteError
	if !errors.As(err, &re) || re.Status != StatusAppError || !strings.Contains(re.Msg, fmt.Sprint(MaxFramePayload)) {
		t.Errorf("oversized reply: err = %v, want an application error naming the limit", err)
	}
	close(release)
	wg.Wait()
	close(errs)
	for err := range errs {
		if err != nil {
			t.Errorf("bounded call beside the oversized reply: %v", err)
		}
	}
	if got, err := c.Call(ctx, &Request{Service: "svc", Op: "Small", Body: []byte("after")}); err != nil || got != "after" {
		t.Fatalf("call after the oversized reply = %q, %v", got, err)
	}
}

// TestClosedConnectionCancelsItsHandlers: a connection that breaks or
// closes cancels the handlers of its requests, whose caller is gone.
// (The read loop once waited for them before cancelling them, so a
// handler waiting on its context held the connection until it gave up
// by itself.)
func TestClosedConnectionCancelsItsHandlers(t *testing.T) {
	started, cancelled := make(chan struct{}), make(chan struct{})
	h := HandlerFunc(func(ctx context.Context, _ string, _ *Request) *Response {
		close(started)
		select {
		case <-ctx.Done():
			close(cancelled)
		case <-time.After(5 * time.Second):
		}
		return &Response{Status: StatusOK}
	})
	_, bound := startServer(t, "loop:closed-cancels", map[string]Handler{"svc": h})
	c, err := Dial(bound)
	if err != nil {
		t.Fatal(err)
	}
	go func() { _, _ = c.Call(context.Background(), &Request{Service: "svc", Op: "Wait"}) }()
	<-started
	_ = c.Close()
	select {
	case <-cancelled:
	case <-time.After(time.Second):
		t.Fatal("the handler was not cancelled within 1s of its connection closing")
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

// roundTrip writes f as a connection does and reads it back through a
// connection's frame reader.
func roundTrip(t testing.TB, f *frame) frame {
	t.Helper()
	var buf bytes.Buffer
	if err := sendFrame(&buf, f); err != nil {
		t.Fatalf("writing %+v: %v", f, err)
	}
	frames := newFrameReader(&buf)
	got, err := frames.next()
	if err != nil {
		t.Fatalf("reading %+v back: %v", f, err)
	}
	if n := buf.Len() + frames.buf.Buffered(); n != 0 {
		t.Fatalf("%d bytes left unread", n)
	}
	return got
}

// requestPayload and responsePayload are the payloads a request or a
// response frame carries.
func requestPayload(t testing.TB, req *Request) string {
	t.Helper()
	return roundTrip(t, &frame{ftype: frameRequest, req: req}).payload
}

// readRequest decodes a request payload as a server does.
func readRequest(payload string) (*Request, error) {
	req := new(Request)
	return req, decodeRequest(payload, req)
}

func responsePayload(t testing.TB, resp *Response) string {
	t.Helper()
	var buf bytes.Buffer
	if err := sendFrame(&buf, &frame{ftype: frameResponse, resp: resp}); err != nil {
		t.Fatalf("writing %+v: %v", resp, err)
	}
	return readReplyPayload(t, &buf)
}

// readReplyPayload reads one response frame off r as a client does:
// its payload into one string.
func readReplyPayload(t testing.TB, r io.Reader) string {
	t.Helper()
	f, err := newFrameReader(r).next()
	if err != nil {
		t.Fatal(err)
	}
	if f.ftype != frameResponse {
		t.Fatalf("frame type %d, want a response", f.ftype)
	}
	return f.payload
}

// readReply reads one response frame off r and decodes it as a client
// does.
func readReply(t testing.TB, r io.Reader) reply {
	t.Helper()
	rep, err := decodeReply(readReplyPayload(t, r))
	if err != nil {
		t.Fatal(err)
	}
	return rep
}

func TestFrameRoundTrip(t *testing.T) {
	in := frame{ftype: frameRequest, id: 42, payload: "payload"}
	out := roundTrip(t, &in)
	if out.ftype != in.ftype || out.id != in.id || out.payload != in.payload {
		t.Fatalf("round trip: %+v vs %+v", out, in)
	}
}

// sameFrame reports whether two frames read off a stream are equal.
func sameFrame(a, b frame) bool {
	return a.ftype == b.ftype && a.id == b.id && a.ttl == b.ttl &&
		a.traceID == b.traceID && a.parentID == b.parentID && a.payload == b.payload
}

// readAll reads frames off r through a connection's frame reader until
// the stream ends.
func readAll(t *testing.T, r io.Reader) []frame {
	t.Helper()
	frames := newFrameReader(r)
	var got []frame
	for {
		f, err := frames.next()
		if err == io.EOF {
			return got
		}
		if err != nil {
			t.Fatalf("after %d frames: %v", len(got), err)
		}
		got = append(got, f)
	}
}

// TestFrameReaderShortReads: a connection hands the frame reader its
// bytes in pieces of any size, down to one byte a read. Every frame
// shape reads the same from one whole buffer and one byte at a time.
func TestFrameReaderShortReads(t *testing.T) {
	trace, parent := strings.Repeat("t", frameMaxMeta/2-1), strings.Repeat("p", frameMaxMeta/2-1)
	// The longest metadata section: both IDs at their limit and one
	// trailing byte, which readers skip.
	longMeta, err := appendFrame(nil, &frame{ftype: frameRequest, id: 3, ttl: 7, payload: "m"})
	if err != nil {
		t.Fatal(err)
	}
	metaAt := frameHeaderLen + frameTTLLen
	section := appendFrameMeta(nil, trace, parent)
	section = append(section, 0xAA)
	section[0]++
	if section[0] != frameMaxMeta {
		t.Fatalf("metadata section of %d bytes, want %d", section[0], frameMaxMeta)
	}
	longMeta = append(append(longMeta[:metaAt:metaAt], section...), longMeta[metaAt+1:]...)

	big := strings.Repeat("0123456789abcdef", 4*frameReadBuf/16+1)
	resp := &Response{Status: StatusOK, ErrMsg: "", Body: []byte("ok")}
	cases := []struct {
		name string
		raw  []byte  // when set, the stream; else want written back to back
		want []frame // the frames read back
	}{
		{name: "traced request", want: []frame{{ftype: frameRequest, id: 1, ttl: 50, traceID: "t1", parentID: "s1", payload: "p"}}},
		{name: "untraced request", want: []frame{{ftype: frameRequest, id: 2, ttl: 0, payload: "p"}}},
		{name: "255-byte metadata", raw: longMeta, want: []frame{{ftype: frameRequest, id: 3, ttl: 7, traceID: trace, parentID: parent, payload: "m"}}},
		{name: "response", want: []frame{{ftype: frameResponse, id: 4, payload: responsePayload(t, resp)}}},
		{name: "cancel", want: []frame{{ftype: frameCancel, id: 5}}},
		{name: "payload beyond the read buffer", want: []frame{{ftype: frameRequest, id: 6, traceID: "t6", payload: big}}},
		{name: "back to back", want: []frame{
			{ftype: frameRequest, id: 7, ttl: 9, traceID: "t7", parentID: "s7", payload: big},
			{ftype: frameResponse, id: 7, payload: "r"},
		}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			raw := c.raw
			if raw == nil {
				for i := range c.want {
					if raw, err = appendFrame(raw, &c.want[i]); err != nil {
						t.Fatal(err)
					}
				}
			}
			whole := readAll(t, bytes.NewReader(raw))
			bytewise := readAll(t, iotest.OneByteReader(bytes.NewReader(raw)))
			if len(whole) != len(c.want) || len(bytewise) != len(c.want) {
				t.Fatalf("read %d frames whole and %d bytewise, want %d", len(whole), len(bytewise), len(c.want))
			}
			for i, want := range c.want {
				if !sameFrame(whole[i], want) || !sameFrame(bytewise[i], want) {
					t.Fatalf("frame %d read as %+v whole and %+v bytewise, want %+v", i, whole[i], bytewise[i], want)
				}
			}
		})
	}
}

// readSizes is a connection that records, for every Read that returned
// bytes, the size of the buffer it was handed.
type readSizes struct {
	net.Conn
	mu    sync.Mutex
	sizes []int
	total int // bytes read
}

func (c *readSizes) Read(p []byte) (int, error) {
	n, err := c.Conn.Read(p)
	if n > 0 {
		c.mu.Lock()
		c.sizes = append(c.sizes, len(p))
		c.total += n
		c.mu.Unlock()
	}
	return n, err
}

// TestLargeReplyReadInLargeChunks: a client copies a reply's payload
// into its string through a pooled buffer of up to frameBufMax bytes,
// which reads straight from the connection. A 1 MiB reply read through
// the connection's 512-byte reader buffer instead would take some 2 000
// reads of 512 bytes.
func TestLargeReplyReadInLargeChunks(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), 1<<16)
	h := HandlerFunc(func(context.Context, string, *Request) *Response {
		return &Response{Status: StatusOK, Body: big}
	})
	_, bound := startServer(t, "loop:large-reply", map[string]Handler{"svc": h})
	raw, err := DialConnContext(context.Background(), bound)
	if err != nil {
		t.Fatal(err)
	}
	conn := &readSizes{Conn: raw}
	c := newClientConn(bound, conn)
	defer c.Close()
	body, err := c.Call(context.Background(), &Request{Service: "svc", Op: "Big"})
	if err != nil || body != string(big) {
		t.Fatalf("Call = %d bytes, %v; want the %d sent", len(body), err, len(big))
	}
	conn.mu.Lock()
	sizes, total := slices.Clone(conn.sizes), conn.total
	conn.mu.Unlock()
	// Status, retry-after and message take a byte each. The first read
	// is the header's, the last one's buffer may be as short as what
	// was left of the payload.
	if want := frameHeaderLen + 3 + len(big); total != want || len(sizes) < 3 {
		t.Fatalf("%d reads returned %d bytes, want the %d of the frame: %v", len(sizes), total, want, sizes)
	}
	for i, n := range sizes[1 : len(sizes)-1] {
		if n < 32<<10 {
			t.Fatalf("read %d of %d was handed %d bytes, want at least 32 KiB: %v", i+2, len(sizes), n, sizes)
		}
	}
}

func TestFrameErrors(t *testing.T) {
	t.Run("oversize write", func(t *testing.T) {
		var buf bytes.Buffer
		err := sendFrame(&buf, &frame{ftype: frameRequest, payload: strings.Repeat("x", MaxFramePayload+1)})
		if !errors.Is(err, ErrFrameTooLarge) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("bad magic", func(t *testing.T) {
		data := make([]byte, frameHeaderLen)
		copy(data, "XX")
		if _, err := newFrameReader(bytes.NewReader(data)).next(); !errors.Is(err, ErrBadFrame) {
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
			if _, err := newFrameReader(bytes.NewReader(data)).next(); !errors.Is(err, ErrBadFrame) {
				t.Fatalf("version %d: err = %v", v, err)
			}
		}
	})
	t.Run("bad type", func(t *testing.T) {
		data := make([]byte, frameHeaderLen)
		copy(data, "CW")
		data[2] = protoVersion
		data[3] = 7
		if _, err := newFrameReader(bytes.NewReader(data)).next(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v", err)
		}
	})
	t.Run("truncated payload", func(t *testing.T) {
		data, err := appendFrame(nil, &frame{ftype: frameRequest, id: 1, payload: "abcdef"})
		if err != nil {
			t.Fatal(err)
		}
		data = data[:len(data)-2]
		if _, err := newFrameReader(bytes.NewReader(data)).next(); !errors.Is(err, ErrBadFrame) {
			t.Fatalf("err = %v", err)
		}
	})
}

func TestRequestResponseCodecs(t *testing.T) {
	req := &Request{Service: "CarRentalService", Op: "SelectCar", Body: []byte{1, 2, 3}}
	got, err := readRequest(requestPayload(t, req))
	if err != nil {
		t.Fatal(err)
	}
	if got.Service != req.Service || got.Op != req.Op || got.Received != string(req.Body) {
		t.Fatalf("request round trip: %+v", got)
	}
	resp := &Response{Status: StatusProtocol, ErrMsg: "illegal op", Body: []byte("x"), RetryAfter: 40 * time.Millisecond}
	gotR, err := decodeReply(responsePayload(t, resp))
	if err != nil {
		t.Fatal(err)
	}
	if gotR.status != resp.Status || gotR.msg != resp.ErrMsg || gotR.body != string(resp.Body) || gotR.retryAfter != resp.RetryAfter {
		t.Fatalf("response round trip: %+v", gotR)
	}
	// Malformed inputs.
	if _, err := readRequest(""); err == nil {
		t.Fatal(`decodeRequest("") must fail`)
	}
	if _, err := decodeReply(""); err == nil {
		t.Fatal(`decodeReply("") must fail`)
	}
	if _, err := decodeReply("\x63\x00"); err == nil {
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
	if err != nil || body != "pong" {
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
		got, err := readRequest(requestPayload(t, req))
		if err != nil {
			return false
		}
		return got.Service == service && got.Op == op && got.Received == string(body)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestResponseCodecProperty(t *testing.T) {
	f := func(status uint8, msg string, body []byte, retryMillis uint16) bool {
		s := Status(status%8) + StatusOK
		resp := &Response{Status: s, ErrMsg: msg, Body: body, RetryAfter: time.Duration(retryMillis) * time.Millisecond}
		got, err := decodeReply(responsePayload(t, resp))
		if err != nil {
			return false
		}
		return got.status == s && got.msg == msg && got.body == string(body) && got.retryAfter == resp.RetryAfter
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: frames of arbitrary payloads round-trip through the framing
// layer.
func TestFrameCodecProperty(t *testing.T) {
	f := func(ftype bool, id uint64, payload string) bool {
		ft := byte(frameRequest)
		if ftype {
			ft = frameResponse
		}
		got := roundTrip(t, &frame{ftype: ft, id: id, payload: payload})
		return got.ftype == ft && got.id == id && got.payload == payload
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}
