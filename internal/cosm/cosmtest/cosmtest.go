// Package cosmtest holds what the wire-format tests of the COSM
// infrastructure services share: a tap that records the argument and
// result bytes of every call crossing the wire, and a builder of dynamic
// values from plain Go literals — the path a client with no Go types
// for a SID takes.
package cosmtest

import (
	"context"
	"encoding/hex"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// Exchange is one recorded invocation: the request body after the
// session chunk and the response body, both in hex. Result is empty for
// void operations and for calls that failed (Err holds the remote text).
type Exchange struct {
	Op     string
	Args   string
	Result string
	Err    string
}

// Tap is a recording proxy in front of one hosted service.
type Tap struct {
	mu    sync.Mutex
	calls []Exchange
	mask  string
}

// NewTap stands a proxy in front of the service behind upstream and
// returns it with the reference clients bind to instead. Meta-operations
// (describe, ping) pass through unrecorded.
func NewTap(t testing.TB, upstream ref.ServiceRef) (*Tap, ref.ServiceRef) {
	t.Helper()
	tap := &Tap{}
	pool := wire.NewPool()
	srv := wire.NewServer(wire.WithServerLog(func(string, ...any) {}))
	t.Cleanup(func() { _ = srv.Close(); _ = pool.Close() })
	err := srv.Register(upstream.Service, wire.HandlerFunc(func(ctx context.Context, _ string, req *wire.Request) *wire.Response {
		body, err := pool.Call(ctx, upstream.Endpoint, &wire.Request{Service: upstream.Service, Op: req.Op, Body: req.Body})
		resp := &wire.Response{Status: wire.StatusOK, Body: body}
		var re *wire.RemoteError
		switch {
		case errors.As(err, &re):
			resp = &wire.Response{Status: re.Status, ErrMsg: re.Msg}
		case err != nil:
			resp = &wire.Response{Status: wire.StatusAppError, ErrMsg: err.Error()}
		}
		if !strings.HasPrefix(req.Op, "_cosm.") {
			tap.record(req, resp)
		}
		return resp
	}))
	if err != nil {
		t.Fatal(err)
	}
	// Named after test and service, not numbered: references to a tapped
	// service travel in pinned bodies.
	bound, err := srv.ListenAndServe("loop:tap-" + upstream.Service + "-" + t.Name())
	if err != nil {
		t.Fatal(err)
	}
	return tap, ref.New(bound, upstream.Service)
}

func (tp *Tap) record(req *wire.Request, resp *wire.Response) {
	// The session chunk leads every request body: one length byte and
	// the binding's random identity, which no golden can hold.
	args := req.Body
	if len(args) > 0 && int(args[0]) < len(args) {
		args = args[1+int(args[0]):]
	}
	tp.mu.Lock()
	tp.calls = append(tp.calls, Exchange{Op: req.Op, Args: hex.EncodeToString(args), Result: hex.EncodeToString(resp.Body), Err: resp.ErrMsg})
	tp.mu.Unlock()
}

// Mask names a run-specific token (a random activity identifier): Take
// replaces every occurrence of it in a body by a same-length run of 'x',
// so the rest of the body can still be pinned.
func (tp *Tap) Mask(token string) {
	tp.mu.Lock()
	tp.mask = token
	tp.mu.Unlock()
}

// Take returns the exchanges recorded since the last Take.
func (tp *Tap) Take() []Exchange {
	tp.mu.Lock()
	defer tp.mu.Unlock()
	out := tp.calls
	tp.calls = nil
	if tp.mask != "" {
		from, to := hex.EncodeToString([]byte(tp.mask)), strings.Repeat("78", len(tp.mask))
		for i := range out {
			out[i].Args = strings.ReplaceAll(out[i].Args, from, to)
			out[i].Result = strings.ReplaceAll(out[i].Result, from, to)
		}
	}
	return out
}

// One returns the single exchange recorded since the last Take, failing
// the test when the step under test made any other number of calls.
func (tp *Tap) One(t testing.TB) Exchange {
	t.Helper()
	calls := tp.Take()
	if len(calls) != 1 {
		t.Fatalf("tap recorded %d calls, want 1: %+v", len(calls), calls)
	}
	return calls[0]
}

// Build hand-builds a dynamic value of type t from a plain Go literal,
// by field name and with the xcode constructors — what a generic client
// does from a form. spec is a bool, int, float64, string (a string or an
// enum literal), ref.ServiceRef, []any (sequence) or map[string]any
// (struct; members left out are zero).
func Build(t *sidl.Type, spec any) (*xcode.Value, error) {
	switch s := spec.(type) {
	case bool:
		return xcode.FromLit(t, sidl.BoolLit(s))
	case int:
		return xcode.FromLit(t, sidl.IntLit(int64(s)))
	case float64:
		return xcode.FromLit(t, sidl.FloatLit(s))
	case string:
		if t.Kind == sidl.Enum {
			return xcode.FromLit(t, sidl.EnumLit(s))
		}
		return xcode.FromLit(t, sidl.StringLit(s))
	case ref.ServiceRef:
		if t.Kind == sidl.SvcRef {
			return xcode.NewRef(t, s), nil
		}
	case []any:
		if t.Kind == sidl.Sequence {
			elems := make([]*xcode.Value, len(s))
			for i, e := range s {
				ev, err := Build(t.Elem, e)
				if err != nil {
					return nil, fmt.Errorf("element %d: %w", i, err)
				}
				elems[i] = ev
			}
			return xcode.NewSequence(t, elems...)
		}
	case map[string]any:
		if t.Kind == sidl.Struct {
			fields := make(map[string]*xcode.Value, len(s))
			for name, fs := range s {
				f, ok := t.Field(name)
				if !ok {
					return nil, fmt.Errorf("%s has no member %q", t, name)
				}
				fv, err := Build(f.Type, fs)
				if err != nil {
					return nil, fmt.Errorf("member %q: %w", name, err)
				}
				fields[name] = fv
			}
			return xcode.NewStruct(t, fields)
		}
	}
	return nil, fmt.Errorf("cosmtest: cannot build %s from %T", t, spec)
}

// Case pins one invocation: the golden hex of its argument chunks and of
// its result chunk, the same call spelt as Build literals for the dynamic
// path, and how Run makes it on the typed path.
type Case struct {
	// Name labels the step in failures.
	Name string
	Op   string
	// Args and Result are Build literals, one per in-parameter and one
	// for the result (nil for void operations).
	Args   []any
	Result any
	// WantArgs and WantResult are the golden bodies.
	WantArgs, WantResult string
	// Call drives the typed client (or whatever typed code makes exactly
	// one call through the tap); Before prepares state no wire operation
	// reaches.
	Before func()
	Call   func() error
}

// Check compares a recorded exchange with the case's golden bodies.
func (c Case) Check(t testing.TB, path string, ex Exchange) {
	t.Helper()
	if ex.Err != "" {
		t.Errorf("%s (%s path): remote error: %s", c.Name, path, ex.Err)
		return
	}
	if ex.Op != c.Op {
		t.Errorf("%s (%s path): recorded op %s, want %s", c.Name, path, ex.Op, c.Op)
	}
	if ex.Args != c.WantArgs {
		t.Errorf("%s (%s path): argument bytes changed\n got %s\nwant %s", c.Name, path, ex.Args, c.WantArgs)
	}
	if ex.Result != c.WantResult {
		t.Errorf("%s (%s path): result bytes changed\n got %s\nwant %s", c.Name, path, ex.Result, c.WantResult)
	}
}

// Run holds a service's RPC surface to its goldens on both paths: every
// case through its typed Call and the real service behind tap, then
// through CheckDynamic. The cases must cover every operation of sid.
func Run(t testing.TB, tap *Tap, sid *sidl.SID, cases []Case) {
	t.Helper()
	covered := map[string]bool{}
	for _, c := range cases {
		if c.Before != nil {
			c.Before()
		}
		if err := c.Call(); err != nil {
			t.Fatalf("%s: %v", c.Name, err)
		}
		c.Check(t, "typed", tap.One(t))
		covered[c.Op] = true
	}
	for _, op := range sid.Ops {
		if !covered[op.Name] {
			t.Errorf("operation %s of %s is not pinned", op.Name, sid.ServiceName)
		}
	}
	CheckDynamic(t, sid, cases)
}

// CheckDynamic replays every case with no Go types at all: a stub
// service answers each call with the hand-built result, a dynamic
// binding sends the hand-built arguments, and both bodies must equal the
// goldens the typed path is held to.
func CheckDynamic(t testing.TB, sid *sidl.SID, cases []Case) {
	t.Helper()
	svc, err := cosm.NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	var cur Case
	for _, op := range sid.Ops {
		svc.MustHandle(op.Name, func(call *cosm.Call) error {
			if cur.Result == nil {
				return nil
			}
			v, err := Build(call.Op.Result, cur.Result)
			call.Result = v
			return err
		})
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	t.Cleanup(func() { _ = node.Close() })
	hosted := "stub." + sid.ServiceName
	if err := node.Host(hosted, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + hosted + "-" + t.Name()); err != nil {
		t.Fatal(err)
	}
	tap, tapped := NewTap(t, node.MustRefFor(hosted))
	conn, err := cosm.BindWithSID(node.Pool(), tapped, sid)
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range cases {
		op, ok := sid.Op(c.Op)
		if !ok {
			t.Fatalf("%s: no operation %s in %s", c.Name, c.Op, sid.ServiceName)
		}
		var args []*xcode.Value
		for _, p := range op.Params {
			if len(args) == len(c.Args) {
				t.Fatalf("%s: %d argument literals for %s", c.Name, len(c.Args), c.Op)
			}
			av, err := Build(p.Type, c.Args[len(args)])
			if err != nil {
				t.Fatalf("%s: argument %s: %v", c.Name, p.Name, err)
			}
			args = append(args, av)
		}
		cur = c
		if _, err := conn.Invoke(context.Background(), c.Op, args...); err != nil {
			t.Fatalf("%s (dynamic path): %v", c.Name, err)
		}
		c.Check(t, "dynamic", tap.One(t))
	}
}
