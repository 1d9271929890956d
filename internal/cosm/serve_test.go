package cosm

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

const poolIDL = `
module Pooled {
    interface COSM_Operations {
        string Echo(in string text);
        string Fail(in string text);
        string Panic(in string text);
        string Wait(in string text);
    };
};
`

// TestPooledCallsAreNeverShared: a server reads each request into one
// string and serves it from pooled objects — the wire layer's request,
// response and handler state, and the Call — which go back to their
// pools once the response is written. Callers share one connection to a
// server whose admission limits shed some calls and let others expire
// in the queue, while handlers succeed, fail or panic after Return, or
// wait until their caller gives up. (Calls with a deadline take a second
// connection: a deadline bounds the caller's write too, and a write cut
// short closes its connection under every call on it.) Every argument names its op,
// session and service. The handler checks them against what it was
// handed, before and after it works; a wrapper around the service
// checks the request's service, op and body after the handler returns;
// and the caller checks its reply or error byte for byte. A pooled
// object handed back early or twice serves two calls at once, and one of
// these checks sees the other call.
func TestPooledCallsAreNeverShared(t *testing.T) {
	sid, err := sidl.Parse(poolIDL)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var violations []string
	violate := func(format string, args ...any) {
		mu.Lock()
		violations = append(violations, fmt.Sprintf(format, args...))
		mu.Unlock()
	}
	// arg decodes the argument and checks that it names the call's op
	// and session.
	arg := func(call *Call) (string, error) {
		var text string
		if err := call.Args(&text); err != nil {
			return "", err
		}
		if want := call.Op.Name + "|" + call.Session + "|"; !strings.HasPrefix(text, want) {
			violate("%s handler in session %s was handed %.40q", call.Op.Name, call.Session, text)
		}
		return text, nil
	}
	// recheck checks, after the handler's work, that the call still
	// carries what it was handed.
	recheck := func(call *Call, text string) {
		runtime.Gosched()
		if again, err := arg(call); err != nil || again != text {
			violate("%s handler: argument %.40q became %.40q, %v", call.Op.Name, text, again, err)
		}
	}
	svc.MustHandle("Echo", func(call *Call) error {
		text, err := arg(call)
		if err != nil {
			return err
		}
		recheck(call, text)
		return call.Return(text)
	})
	svc.MustHandle("Fail", func(call *Call) error {
		text, err := arg(call)
		if err != nil {
			return err
		}
		if err := call.Return(text); err != nil {
			return err
		}
		recheck(call, text)
		return errors.New("failed after Return: " + text)
	})
	svc.MustHandle("Panic", func(call *Call) error {
		text, err := arg(call)
		if err != nil {
			return err
		}
		if err := call.Return(text); err != nil {
			return err
		}
		recheck(call, text)
		panic("after Return: " + text)
	})
	svc.MustHandle("Wait", func(call *Call) error {
		text, err := arg(call)
		if err != nil {
			return err
		}
		select {
		case <-call.Ctx.Done():
		case <-time.After(2 * time.Millisecond):
		}
		recheck(call, text)
		return call.Return(text)
	})

	// The service is hosted under two names, behind a wrapper that holds
	// the wire request to what it carried when the handler started.
	wrap := wire.HandlerFunc(func(ctx context.Context, remote string, req *wire.Request) *wire.Response {
		service, op, body := req.Service, req.Op, req.Received
		if !strings.Contains(body, op+"|") || !strings.Contains(body, "|"+service+"|") {
			violate("request for %s/%s carries %.60q", service, op, body)
		}
		resp := svc.ServeCOSM(ctx, remote, req)
		if req.Service != service || req.Op != op || req.Received != body {
			violate("request for %s/%s became one for %s/%s", service, op, req.Service, req.Op)
		}
		return resp
	})
	srv := wire.NewServer(wire.WithServerLog(func(string, ...any) {}),
		wire.WithAdmission(wire.AdmissionPolicy{MaxInFlight: 4, MaxQueue: 12, QueueWait: 5 * time.Millisecond}))
	defer srv.Close()
	services := []string{"PoolA", "PoolB"}
	for _, name := range services {
		if err := srv.Register(name, wrap); err != nil {
			t.Fatal(err)
		}
	}
	bound, err := srv.ListenAndServe("loop:pooled-calls")
	if err != nil {
		t.Fatal(err)
	}
	pool, bounded := wire.NewPool(), wire.NewPool()
	defer pool.Close()
	defer bounded.Close()

	const callers, calls = 16, 30
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := range callers {
		service := services[g%len(services)]
		conn, err := BindWithSID(pool, ref.New(bound, service), sid)
		if err != nil {
			t.Fatal(err)
		}
		expiring, err := BindWithSID(bounded, ref.New(bound, service), sid)
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				kind, c := (g+i)%6, conn
				if kind == 3 {
					c = expiring
				}
				text := fmt.Sprintf("%s|%s|%d/%d:", c.Session(), service, g, i)
				if kind == 5 {
					text += strings.Repeat(string(rune('a'+g)), 5000)
				}
				if err := pooledCall(c, service, kind, text); err != nil {
					errs <- fmt.Errorf("caller %d, call %d (%s): %w", g, i, service, err)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	for _, v := range violations {
		t.Error(v)
	}
	t.Logf("server: %+v", srv.Stats())
}

// pooledCall makes one call of kind on conn, its argument op|text, and
// checks its outcome: the reply or error the call's own argument
// determines, or a shed.
func pooledCall(conn *Conn, service string, kind int, text string) error {
	ctx := context.Background()
	op := [...]string{"Echo", "Fail", "Panic", "Wait", "Wait", "Echo"}[kind]
	switch kind {
	case 3: // expires, at the caller or in the admission queue
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, 2*time.Millisecond)
		defer cancel()
	case 4: // cancelled while it runs or waits
		var cancel context.CancelFunc
		ctx, cancel = context.WithCancel(ctx)
		defer cancel()
		time.AfterFunc(500*time.Microsecond, cancel)
	}
	arg := op + "|" + text
	var got string
	err := conn.Call(ctx, op, &got, arg)
	var re *wire.RemoteError
	switch {
	case errors.As(err, &re) && re.Status == wire.StatusOverloaded:
		if re.Msg != "admission queue full" && re.Msg != "queue wait exceeded" {
			return fmt.Errorf("shed with %q", re.Msg)
		}
		return nil
	case kind == 1:
		if !errors.As(err, &re) || re.Status != wire.StatusAppError || re.Msg != "failed after Return: "+arg {
			return fmt.Errorf("Fail = %v, want its own error", err)
		}
		return nil
	case kind == 2:
		if !errors.As(err, &re) || re.Status != wire.StatusAppError || re.Msg != "handler panic: after Return: "+arg {
			return fmt.Errorf("Panic = %v, want its own panic", err)
		}
		return nil
	case kind == 3 && errors.As(err, &re):
		if re.Status != wire.StatusDeadlineExpired || re.Msg != service+"/Wait" {
			return fmt.Errorf("expired Wait = %v, want its own expiry", err)
		}
		return nil
	case kind == 3 && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, wire.ErrClientClosed)),
		kind == 4 && errors.Is(err, context.Canceled):
		return nil
	case err != nil:
		return err
	}
	return sameText(got, arg)
}

// TestServeCOSMAllocs pins what one typed dispatch allocates in the
// service, apart from the wire: the server half of a call, beside the
// round trip TestRemoteImportAllocs pins. The session and the argument
// are windows of the request, the Call is pooled and the reply is
// encoded into a pooled buffer. What is left is the handler's own: its
// argument variable, which Args's binding moves to the heap, and the
// result boxed for Return. The request here was not read by a server,
// so it lends no response, and Reply makes the third.
func TestServeCOSMAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are exact only without the race detector")
	}
	sid, err := sidl.Parse(poolIDL)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	svc.MustHandle("Echo", func(call *Call) error {
		var text string
		if err := call.Args(&text); err != nil {
			return err
		}
		return call.Return(text)
	})
	op, _ := sid.Op("Echo")
	body, err := appendCallArgs(appendChunk(nil, []byte("session")), op, []any{"an argument"}, appendEncoded)
	if err != nil {
		t.Fatal(err)
	}
	req := &wire.Request{Service: "Pooled", Op: "Echo", Received: string(body)}
	ctx := context.Background()
	serve := func() {
		resp := svc.ServeCOSM(ctx, "remote", req)
		if resp.Status != wire.StatusOK {
			t.Fatalf("Echo: %v %s", resp.Status, resp.ErrMsg)
		}
		wire.ReleaseBuf(resp.Buf)
	}
	serve()
	if got := testing.AllocsPerRun(500, serve); got != 3 {
		t.Fatalf("one typed dispatch allocates %v, want 3", got)
	}
}

// FuzzDecodeCallBody: a request body comes off a connection anyone can
// open, and decodeCallBody is what reads it before the FSM steps or a
// handler runs. Any input is refused with an error, or splits into a
// session and arguments — windows of the body — that encode back to
// the same bytes, each argument decoding as its parameter's type.
func FuzzDecodeCallBody(f *testing.F) {
	sid, err := sidl.Parse(`
module Fuzzed {
    struct Pair_t { long a; string b; };
    interface COSM_Operations {
        void Three(in string s, in Pair_t p, in sequence<long> n, out long o);
    };
};
`)
	if err != nil {
		f.Fatal(err)
	}
	op, _ := sid.Op("Three")
	valid, err := appendCallArgs(appendChunk(nil, []byte("0123456789abcdef")), op,
		[]any{"text", struct {
			A int
			B string
		}{7, "b"}, []int{1, 2, 3}}, appendEncoded)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-1])
	f.Add([]byte{0x81, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		body := string(data)
		session, args, err := decodeCallBody(op, body)
		if err != nil {
			return
		}
		if !strings.HasSuffix(body, args) || !strings.Contains(body, session) {
			t.Fatalf("session %q and arguments %q are not windows of %q", session, args, body)
		}
		again := appendChunk(nil, []byte(session))
		rest := args
		for _, p := range op.Params {
			if p.Dir == sidl.Out {
				continue
			}
			chunk, r, err := consumeChunk(rest)
			if err != nil {
				t.Fatalf("argument %s of a body decodeCallBody took: %v", p.Name, err)
			}
			if _, err := xcode.Unmarshal(p.Type, chunk); err != nil {
				t.Fatalf("argument %s of a body decodeCallBody took: %v", p.Name, err)
			}
			again = appendChunk(again, []byte(chunk))
			rest = r
		}
		if string(again) != body {
			t.Fatalf("%q decoded and encoded back as %q", body, again)
		}
	})
}
