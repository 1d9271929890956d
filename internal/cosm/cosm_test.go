package cosm

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"cosm/internal/fsm"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

const calcIDL = `
module Calc {
    struct Pair_t { long a; long b; };
    interface COSM_Operations {
        long Add(in Pair_t p);
        long Div(in Pair_t p);
        void Note(in string text);
        long Split(in long v, out long half, inout long acc);
    };
};
`

// newCalcService builds a small arithmetic service used across tests.
func newCalcService(t *testing.T) *Service {
	t.Helper()
	sid, err := sidl.Parse(calcIDL)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	int32T := sidl.Basic(sidl.Int32)
	type pair struct{ A, B int64 }
	svc.MustHandle("Add", func(call *Call) error {
		var p pair
		if err := call.Args(&p); err != nil {
			return err
		}
		call.Result = xcode.NewInt(int32T, p.A+p.B)
		return nil
	})
	svc.MustHandle("Div", func(call *Call) error {
		var p pair
		if err := call.Args(&p); err != nil {
			return err
		}
		if p.B == 0 {
			return errors.New("division by zero")
		}
		call.Result = xcode.NewInt(int32T, p.A/p.B)
		return nil
	})
	svc.MustHandle("Note", func(call *Call) error { return nil })
	svc.MustHandle("Split", func(call *Call) error {
		var v, acc int64
		if err := call.Args(&v, &acc); err != nil {
			return err
		}
		if err := call.SetOut("half", xcode.NewInt(int32T, v/2)); err != nil {
			return err
		}
		if err := call.SetOut("acc", xcode.NewInt(int32T, acc+v)); err != nil {
			return err
		}
		call.Result = xcode.NewInt(int32T, v)
		return nil
	})
	return svc
}

func startCalcNode(t *testing.T, loopName string) (*Node, ref.ServiceRef) {
	t.Helper()
	node := NewNode(WithNodeLog(func(string, ...any) {}))
	if err := node.Host("Calc", newCalcService(t)); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, node.MustRefFor("Calc")
}

func TestDescribeAndInvoke(t *testing.T) {
	node, calcRef := startCalcNode(t, "calc-basic")
	ctx := context.Background()

	sid, err := Describe(ctx, node.Pool(), calcRef)
	if err != nil {
		t.Fatal(err)
	}
	if sid.ServiceName != "Calc" || len(sid.Ops) != 4 {
		t.Fatalf("described SID = %s with %d ops", sid.ServiceName, len(sid.Ops))
	}

	conn, err := Bind(ctx, node.Pool(), calcRef)
	if err != nil {
		t.Fatal(err)
	}
	pairT := sid.Type("Pair_t")
	arg, err := xcode.NewStruct(pairT, map[string]*xcode.Value{
		"a": xcode.NewInt(sidl.Basic(sidl.Int32), 20),
		"b": xcode.NewInt(sidl.Basic(sidl.Int32), 22),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.Invoke(ctx, "Add", arg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Int != 42 {
		t.Fatalf("Add = %d", res.Value.Int)
	}
}

func TestInvokeVoidAndError(t *testing.T) {
	node, calcRef := startCalcNode(t, "calc-err")
	ctx := context.Background()
	conn, err := Bind(ctx, node.Pool(), calcRef)
	if err != nil {
		t.Fatal(err)
	}
	// Void result.
	res, err := conn.Invoke(ctx, "Note", xcode.NewString(sidl.Basic(sidl.String), "hello"))
	if err != nil {
		t.Fatal(err)
	}
	if res.Value != nil {
		t.Fatalf("void op returned %s", res.Value)
	}
	// Application error propagates with its message.
	pairT := conn.SID().Type("Pair_t")
	zero := xcode.Zero(pairT)
	_, err = conn.Invoke(ctx, "Div", zero)
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Status != wire.StatusAppError || !strings.Contains(re.Msg, "division by zero") {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeOutAndInout(t *testing.T) {
	node, calcRef := startCalcNode(t, "calc-out")
	ctx := context.Background()
	conn, err := Bind(ctx, node.Pool(), calcRef)
	if err != nil {
		t.Fatal(err)
	}
	int32T := sidl.Basic(sidl.Int32)
	res, err := conn.Invoke(ctx, "Split", xcode.NewInt(int32T, 10), xcode.NewInt(int32T, 5))
	if err != nil {
		t.Fatal(err)
	}
	op, _ := conn.SID().Op("Split")
	if res.Value.Int != 10 {
		t.Fatalf("result = %d", res.Value.Int)
	}
	half, err := res.Out(op, "half")
	if err != nil || half.Int != 5 {
		t.Fatalf("half = %v, %v", half, err)
	}
	acc, err := res.Out(op, "acc")
	if err != nil || acc.Int != 15 {
		t.Fatalf("acc = %v, %v", acc, err)
	}
	if _, err := res.Out(op, "v"); !errors.Is(err, ErrBadResult) {
		t.Fatalf("Out(v) err = %v", err)
	}
}

func TestInvokeArgErrors(t *testing.T) {
	node, calcRef := startCalcNode(t, "calc-args")
	ctx := context.Background()
	conn, err := Bind(ctx, node.Pool(), calcRef)
	if err != nil {
		t.Fatal(err)
	}
	// Unknown operation.
	if _, err := conn.Invoke(ctx, "Mul"); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v", err)
	}
	// Wrong arity.
	if _, err := conn.Invoke(ctx, "Add"); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	// Non-conforming argument type.
	if _, err := conn.Invoke(ctx, "Add", xcode.NewString(sidl.Basic(sidl.String), "x")); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
}

func TestInvokeSubtypeArgumentProjected(t *testing.T) {
	// A client may pass a value of an extended record type where the
	// base type is declared; the runtime projects it (section 3.1).
	node, calcRef := startCalcNode(t, "calc-subtype")
	ctx := context.Background()
	conn, err := Bind(ctx, node.Pool(), calcRef)
	if err != nil {
		t.Fatal(err)
	}
	extT := sidl.StructOf("ExtendedPair",
		sidl.Field{Name: "a", Type: sidl.Basic(sidl.Int32)},
		sidl.Field{Name: "b", Type: sidl.Basic(sidl.Int32)},
		sidl.Field{Name: "note", Type: sidl.Basic(sidl.String)},
	)
	arg, err := xcode.NewStruct(extT, map[string]*xcode.Value{
		"a":    xcode.NewInt(sidl.Basic(sidl.Int32), 1),
		"b":    xcode.NewInt(sidl.Basic(sidl.Int32), 2),
		"note": xcode.NewString(sidl.Basic(sidl.String), "ignored by base service"),
	})
	if err != nil {
		t.Fatal(err)
	}
	res, err := conn.Invoke(ctx, "Add", arg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Value.Int != 3 {
		t.Fatalf("Add = %d", res.Value.Int)
	}
}

func TestServiceFSMEnforcement(t *testing.T) {
	sid := sidl.CarRentalSID()
	svc, err := NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	selectReturnT := sid.Type("SelectCarReturn_t")
	bookReturnT := sid.Type("BookCarReturn_t")
	svc.MustHandle("SelectCar", func(call *Call) error {
		call.Result = xcode.Zero(selectReturnT)
		return nil
	})
	svc.MustHandle("Commit", func(call *Call) error {
		call.Result = xcode.Zero(bookReturnT)
		return nil
	})

	node := NewNode(WithNodeLog(func(string, ...any) {}))
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:fsm-enforce"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	ctx := context.Background()
	conn, err := Bind(ctx, node.Pool(), node.MustRefFor("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}

	// Commit before SelectCar violates the FSM and is rejected by the
	// server with StatusProtocol.
	_, err = conn.Invoke(ctx, "Commit")
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Status != wire.StatusProtocol {
		t.Fatalf("err = %v, want protocol violation", err)
	}

	// The legal sequence succeeds.
	sel := xcode.Zero(sid.Type("SelectCar_t"))
	if _, err := conn.Invoke(ctx, "SelectCar", sel); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Invoke(ctx, "Commit"); err != nil {
		t.Fatal(err)
	}

	// Sessions are independent: a second binding starts in INIT.
	conn2, err := Bind(ctx, node.Pool(), node.MustRefFor("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn2.Invoke(ctx, "Commit"); err == nil {
		t.Fatal("fresh session must start in INIT")
	}
}

// TestMalformedArgumentsRefusedBeforeFSM: dispatch validates every
// argument chunk against its parameter type before anything else, so a
// malformed body answers StatusBadRequest with the FSM not stepped and
// no handler run, typed or dynamic.
func TestMalformedArgumentsRefusedBeforeFSM(t *testing.T) {
	sid := sidl.CarRentalSID()
	svc, err := NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	var ran int
	svc.MustHandle("SelectCar", func(call *Call) error {
		ran++
		return call.Return(struct{ Available bool }{true})
	})
	svc.MustHandle("Commit", func(call *Call) error {
		ran++
		call.Result = xcode.Zero(sid.Type("BookCarReturn_t"))
		return nil
	})
	node := NewNode(WithNodeLog(func(string, ...any) {}))
	defer node.Close()
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}
	bound, err := node.ListenAndServe("loop:fsm-malformed")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	call := func(op string, args ...[]byte) error {
		body := appendChunk(nil, []byte("s1"))
		for _, a := range args {
			body = appendChunk(body, a)
		}
		_, err := node.Pool().Call(ctx, bound, &wire.Request{Service: "CarRentalService", Op: op, Body: body})
		return err
	}
	selectCar, err := xcode.AppendEncode(nil, sid.Type("SelectCar_t"), struct {
		Model, BookingDate string
		Days               int
	}{"FIAT_Uno", "1994-06-21", 3})
	if err != nil {
		t.Fatal(err)
	}
	for name, args := range map[string][][]byte{
		"truncated argument":    {selectCar[:len(selectCar)-1]},
		"argument with a tail":  {append(selectCar[:len(selectCar):len(selectCar)], 0)},
		"missing argument":      nil,
		"one argument too many": {selectCar, selectCar},
		"string past its bytes": {{0x7f, 'x'}},
	} {
		var re *wire.RemoteError
		if err := call("SelectCar", args...); !errors.As(err, &re) || re.Status != wire.StatusBadRequest {
			t.Errorf("%s: err = %v, want bad request", name, err)
		}
	}
	if ran != 0 {
		t.Fatalf("handlers ran %d times on malformed bodies", ran)
	}
	// Had a refused SelectCar stepped the session, Commit would be legal.
	var re *wire.RemoteError
	if err := call("Commit"); !errors.As(err, &re) || re.Status != wire.StatusProtocol {
		t.Fatalf("Commit after refused SelectCars = %v, want protocol violation", err)
	}
	if err := call("SelectCar", selectCar); err != nil {
		t.Fatal(err)
	}
	if err := call("Commit"); err != nil || ran != 2 {
		t.Fatalf("Commit after a valid SelectCar = %v (handlers ran %d times)", err, ran)
	}
}

func TestWithoutFSMEnforcement(t *testing.T) {
	sid := sidl.CarRentalSID()
	svc, err := NewService(sid, WithoutFSMEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	svc.MustHandle("Commit", func(call *Call) error {
		call.Result = xcode.Zero(sid.Type("BookCarReturn_t"))
		return nil
	})
	node := NewNode(WithNodeLog(func(string, ...any) {}))
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:fsm-off"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	conn, err := Bind(context.Background(), node.Pool(), node.MustRefFor("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Invoke(context.Background(), "Commit"); err != nil {
		t.Fatalf("enforcement disabled, Commit should pass: %v", err)
	}
}

func TestServiceConstructionErrors(t *testing.T) {
	if _, err := NewService(nil); !errors.Is(err, ErrNilService) {
		t.Fatalf("err = %v", err)
	}
	if _, err := NewService(&sidl.SID{}); err == nil {
		t.Fatal("invalid SID must fail")
	}
	svc := newCalcService(t)
	if err := svc.Handle("NoSuchOp", func(*Call) error { return nil }); !errors.Is(err, ErrUnknownOp) {
		t.Fatalf("err = %v", err)
	}
	if err := svc.Handle("Add", nil); err == nil {
		t.Fatal("nil handler must fail")
	}
}

func TestUnimplementedOp(t *testing.T) {
	sid, err := sidl.Parse(calcIDL)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	node := NewNode(WithNodeLog(func(string, ...any) {}))
	if err := node.Host("Calc", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:unimpl"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	conn, err := Bind(context.Background(), node.Pool(), node.MustRefFor("Calc"))
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Invoke(context.Background(), "Note", xcode.NewString(sidl.Basic(sidl.String), "x"))
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Status != wire.StatusAppError || !strings.Contains(re.Msg, "not implemented") {
		t.Fatalf("err = %v", err)
	}
}

func TestNodeRefBeforeServe(t *testing.T) {
	node := NewNode()
	defer node.Close()
	if _, err := node.RefFor("x"); !errors.Is(err, ErrNotServing) {
		t.Fatalf("err = %v", err)
	}
}

func TestPingMetaOp(t *testing.T) {
	node, calcRef := startCalcNode(t, "calc-ping")
	if err := Ping(context.Background(), node.Pool(), calcRef); err != nil {
		t.Fatal(err)
	}
	bad := ref.New(calcRef.Endpoint, "NoSuchService")
	if err := Ping(context.Background(), node.Pool(), bad); err == nil {
		t.Fatal("ping of unknown service must fail")
	}
}

func TestConcurrentInvocations(t *testing.T) {
	node, calcRef := startCalcNode(t, "calc-conc")
	ctx := context.Background()
	conn, err := Bind(ctx, node.Pool(), calcRef)
	if err != nil {
		t.Fatal(err)
	}
	pairT := conn.SID().Type("Pair_t")
	var wg sync.WaitGroup
	errs := make([]error, 32)
	for i := range errs {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			arg, err := xcode.NewStruct(pairT, map[string]*xcode.Value{
				"a": xcode.NewInt(sidl.Basic(sidl.Int32), int64(i)),
				"b": xcode.NewInt(sidl.Basic(sidl.Int32), int64(i)),
			})
			if err != nil {
				errs[i] = err
				return
			}
			res, err := conn.Invoke(ctx, "Add", arg)
			if err != nil {
				errs[i] = err
				return
			}
			if res.Value.Int != int64(2*i) {
				errs[i] = fmt.Errorf("Add(%d,%d) = %d", i, i, res.Value.Int)
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("invocation %d: %v", i, err)
		}
	}
}

func TestSessionTableEviction(t *testing.T) {
	svc := &Service{sid: sidl.CarRentalSID(), sessions: obs.NewLRU[*fsm.Session](2, obs.Occupancy{})}
	// Three distinct sessions with capacity two: the first is evicted.
	if err := svc.step("r1", "s1", "SelectCar"); err != nil {
		t.Fatal(err)
	}
	if err := svc.step("r1", "s2", "SelectCar"); err != nil {
		t.Fatal(err)
	}
	if err := svc.step("r1", "s3", "SelectCar"); err != nil {
		t.Fatal(err)
	}
	if n := svc.sessions.Len(); n != 2 {
		t.Fatalf("table size = %d, want 2", n)
	}
	// s1 was evicted; a new step for it starts a fresh session in INIT,
	// so Commit is illegal again.
	if err := svc.step("r1", "s1", "Commit"); err == nil {
		t.Fatal("evicted session must restart at INIT")
	}
	// s3 is still live and in SELECTED.
	if err := svc.step("r1", "s3", "Commit"); err != nil {
		t.Fatalf("live session lost state: %v", err)
	}
}

// TestConcurrentFirstCallsShareOneSession: callers racing on the first
// call of one (remote, session) pair step one fsm.Session. Open is legal
// only in INIT, so exactly one of them takes the transition and every
// other finds the session already OPEN.
func TestConcurrentFirstCallsShareOneSession(t *testing.T) {
	spec := &fsm.Spec{States: []string{"INIT", "OPEN"}, Initial: "INIT", Transitions: []fsm.Transition{{From: "INIT", Op: "Open", To: "OPEN"}}}
	svc := &Service{sid: &sidl.SID{FSM: spec}, sessions: obs.NewLRU[*fsm.Session](maxSessions, obs.Occupancy{})}
	const callers = 32
	var wg sync.WaitGroup
	var opened atomic.Int32
	start := make(chan struct{})
	errs := make(chan error, callers)
	for range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			if err := svc.step("r1", "s1", "Open"); err == nil {
				opened.Add(1)
			} else if !errors.Is(err, fsm.ErrIllegalOp) {
				errs <- err
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Errorf("step: %v", err)
	}
	if n := opened.Load(); n != 1 {
		t.Fatalf("%d of %d first calls took INIT -> OPEN, want exactly 1", n, callers)
	}
	if n := svc.sessions.Len(); n != 1 {
		t.Fatalf("table holds %d sessions for one pair, want 1", n)
	}
}

func TestChunkCodecErrors(t *testing.T) {
	if _, _, err := consumeChunk(""); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := consumeChunk("\x05\x01"); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := consumeChunk(strings.Repeat("\x80", 11)); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("overflow err = %v", err)
	}
	// A length in more bytes than it needs: a body has one encoding.
	if _, _, err := consumeChunk("\x81\x00a"); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("non-minimal length err = %v", err)
	}
	// Round trip sanity for multi-byte length prefixes.
	long := strings.Repeat("\x07", 1<<15)
	chunk, rest, err := consumeChunk(string(appendChunk(nil, []byte(long))))
	if err != nil || chunk != long || len(rest) != 0 {
		t.Fatalf("chunk round trip: %d bytes, %d left, %v", len(chunk), len(rest), err)
	}
}

// TestTypedCallAndHandler drives the typed path at both ends against the
// dynamic one: a handler written with Args/Return serves a dynamic
// Invoke, a dynamic handler serves Conn.Call, and the two typed ends
// meet an older and a newer description of each other.
func TestTypedCallAndHandler(t *testing.T) {
	type pair struct{ A, B int }
	sid, err := sidl.Parse(calcIDL)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	svc.MustHandle("Add", func(call *Call) error {
		var p pair
		if err := call.Args(&p); err != nil {
			return err
		}
		return call.Return(p.A + p.B)
	})
	svc.MustHandle("Div", func(call *Call) error {
		var p, extra pair
		if err := call.Args(&p, &extra); err != nil { // one argument too many
			return err
		}
		return nil
	})
	var noted string
	svc.MustHandle("Note", func(call *Call) error {
		if err := call.Args(&noted); err != nil {
			return err
		}
		if noted == "return something" {
			return call.Return("a result a void operation does not have")
		}
		return nil
	})
	svc.MustHandle("Split", func(call *Call) error {
		// Return, then a hand-set extended result: what goes out is the
		// hand-set value, projected like any dynamic result.
		if err := call.Return(1); err != nil {
			return err
		}
		call.Result = xcode.NewInt(sidl.Basic(sidl.Int32), 7)
		return nil
	})
	node := NewNode(WithNodeLog(func(string, ...any) {}))
	defer node.Close()
	if err := node.Host("Calc", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:calc-typed"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	conn, err := Bind(ctx, node.Pool(), node.MustRefFor("Calc"))
	if err != nil {
		t.Fatal(err)
	}

	var sum int
	if err := conn.Call(ctx, "Add", &sum, pair{20, 22}); err != nil || sum != 42 {
		t.Fatalf("typed Add = %d, %v", sum, err)
	}
	if err := conn.Call(ctx, "Add", &sum, &pair{1, 2}); err != nil || sum != 3 {
		t.Fatalf("typed Add of a pointer = %d, %v", sum, err)
	}
	// The typed handler serves a dynamic caller with the same bytes.
	arg, err := xcode.NewStruct(sid.Type("Pair_t"), map[string]*xcode.Value{
		"a": xcode.NewInt(sidl.Basic(sidl.Int32), 5), "b": xcode.NewInt(sidl.Basic(sidl.Int32), 6)})
	if err != nil {
		t.Fatal(err)
	}
	if res, err := conn.Invoke(ctx, "Add", arg); err != nil || res.Value.Int != 11 {
		t.Fatalf("dynamic Add against the typed handler = %v, %v", res, err)
	}
	if err := conn.Call(ctx, "Note", nil, "hello"); err != nil || noted != "hello" {
		t.Fatalf("typed Note = %q, %v", noted, err)
	}
	var res int
	if err := conn.Call(ctx, "Split", &res, 4, 0); err != nil || res != 7 {
		t.Fatalf("Split = %d, %v; want the hand-set result", res, err)
	}

	for name, c := range map[string]struct {
		op     string
		result any
		args   []any
		want   error
	}{
		"unknown operation":      {"Mul", nil, nil, ErrUnknownOp},
		"too few arguments":      {"Add", &sum, nil, ErrBadArgs},
		"too many arguments":     {"Add", &sum, []any{pair{}, pair{}}, ErrBadArgs},
		"argument of wrong kind": {"Add", &sum, []any{"20+22"}, ErrBadArgs},
		"result of wrong kind":   {"Add", new(string), []any{pair{}}, ErrBadResult},
		"result of a void op":    {"Note", &sum, []any{"x"}, ErrBadResult},
		"result not a pointer":   {"Add", sum, []any{pair{}}, ErrBadResult},
	} {
		if err := conn.Call(ctx, c.op, c.result, c.args...); !errors.Is(err, c.want) {
			t.Errorf("%s: Call = %v, want %v", name, err, c.want)
		}
	}
	// Handler-side mistakes surface as application errors naming the op.
	if err := conn.Call(ctx, "Div", &sum, pair{1, 1}); err == nil || !strings.Contains(err.Error(), "handler binds 2") {
		t.Errorf("Args with a wrong count = %v", err)
	}
	if err := conn.Call(ctx, "Note", nil, "return something"); err == nil || !strings.Contains(err.Error(), "result of op Note") {
		t.Errorf("Return on a void operation = %v", err)
	}
}

const mirrorIDL = `
module Mirror {
    interface COSM_Operations {
        string Echo(in string text);
        string Twice(in string text);
        string Fail(in string text);
        string Panic(in string text);
        string Mixed(in string text, out long n);
    };
};
`

// TestBorrowedBodiesAreNeverShared: every request and reply body is
// encoded into a buffer borrowed from the wire layer's frame pool and
// handed back once, after its write. Many callers share one connection,
// with bodies from a few bytes to past the pool's 64 KiB cap, while
// handlers fail, panic or return twice after encoding a reply, and
// every reply is checked byte for byte: a buffer handed back twice, or
// while its frame is still queued for the write, ends up under two
// bodies at once, and one of them arrives wrong.
func TestBorrowedBodiesAreNeverShared(t *testing.T) {
	sid, err := sidl.Parse(mirrorIDL)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	echo := func(call *Call) (string, error) {
		var text string
		if err := call.Args(&text); err != nil {
			return "", err
		}
		return text, call.Return(text)
	}
	svc.MustHandle("Echo", func(call *Call) error {
		_, err := echo(call)
		return err
	})
	svc.MustHandle("Twice", func(call *Call) error {
		text, err := echo(call)
		if err != nil {
			return err
		}
		return call.Return(strings.ToUpper(text))
	})
	svc.MustHandle("Fail", func(call *Call) error {
		if _, err := echo(call); err != nil {
			return err
		}
		return errors.New("failed after Return")
	})
	svc.MustHandle("Panic", func(call *Call) error {
		if _, err := echo(call); err != nil {
			return err
		}
		panic("after Return")
	})
	svc.MustHandle("Mixed", func(call *Call) error {
		text, err := echo(call)
		if err != nil {
			return err
		}
		call.Result = xcode.NewString(sidl.Basic(sidl.String), strings.ToUpper(text))
		return call.SetOut("n", xcode.NewInt(sidl.Basic(sidl.Int32), int64(len(text))))
	})
	node := NewNode(WithNodeLog(func(string, ...any) {}))
	defer node.Close()
	if err := node.Host("Mirror", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:borrowed-bodies"); err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	conn, err := Bind(ctx, node.Pool(), node.MustRefFor("Mirror"))
	if err != nil {
		t.Fatal(err)
	}

	sizes := []int{3, 41, 700, 5000, 70 << 10}
	const callers, calls = 16, 60
	var wg sync.WaitGroup
	errs := make(chan error, callers)
	for g := range callers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range calls {
				// A body of its own: the caller and call in front, then
				// a letter run of a size and offset no other call shares.
				var b strings.Builder
				fmt.Fprintf(&b, "%d/%d:", g, i)
				for k := range sizes[(g+i)%len(sizes)] {
					b.WriteByte(byte('a' + (g*7+i*3+k)%26))
				}
				text := b.String()
				if err := mirrorCall(ctx, conn, i%5, text); err != nil {
					errs <- fmt.Errorf("caller %d, call %d (%d bytes): %w", g, i, len(text), err)
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
}

// mirrorCall makes one call of the Mirror service, by kind, and checks
// its outcome.
func mirrorCall(ctx context.Context, conn *Conn, kind int, text string) error {
	var got string
	var re *wire.RemoteError
	switch kind {
	case 0:
		if err := conn.Call(ctx, "Echo", &got, text); err != nil {
			return err
		}
		return sameText(got, text)
	case 1:
		if err := conn.Call(ctx, "Twice", &got, text); err != nil {
			return err
		}
		return sameText(got, strings.ToUpper(text))
	case 2:
		if err := conn.Call(ctx, "Fail", &got, text); !errors.As(err, &re) || re.Status != wire.StatusAppError || re.Msg != "failed after Return" {
			return fmt.Errorf("Fail = %v, want the handler's error", err)
		}
	case 3:
		if err := conn.Call(ctx, "Panic", &got, text); !errors.As(err, &re) || re.Status != wire.StatusAppError || !strings.Contains(re.Msg, "handler panic") {
			return fmt.Errorf("Panic = %v, want the handler panic", err)
		}
	default:
		res, err := conn.Invoke(ctx, "Mixed", xcode.NewString(sidl.Basic(sidl.String), text))
		if err != nil {
			return err
		}
		if res.Outs[0].Int != int64(len(text)) {
			return fmt.Errorf("Mixed: out n = %d, want %d", res.Outs[0].Int, len(text))
		}
		return sameText(res.Value.Str, strings.ToUpper(text))
	}
	return nil
}

func sameText(got, want string) error {
	if got == want {
		return nil
	}
	i := 0
	for i < min(len(got), len(want)) && got[i] == want[i] {
		i++
	}
	return fmt.Errorf("reply of %d bytes differs from the %d expected at byte %d", len(got), len(want), i)
}
