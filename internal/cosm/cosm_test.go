package cosm

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

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
	svc.MustHandle("Add", func(call *Call) error {
		p, err := call.Arg("p")
		if err != nil {
			return err
		}
		a, _ := p.Field("a")
		b, _ := p.Field("b")
		call.Result = xcode.NewInt(int32T, a.Int+b.Int)
		return nil
	})
	svc.MustHandle("Div", func(call *Call) error {
		p, err := call.Arg("p")
		if err != nil {
			return err
		}
		a, _ := p.Field("a")
		b, _ := p.Field("b")
		if b.Int == 0 {
			return errors.New("division by zero")
		}
		call.Result = xcode.NewInt(int32T, a.Int/b.Int)
		return nil
	})
	svc.MustHandle("Note", func(call *Call) error { return nil })
	svc.MustHandle("Split", func(call *Call) error {
		v, err := call.Arg("v")
		if err != nil {
			return err
		}
		acc, err := call.Arg("acc")
		if err != nil {
			return err
		}
		if err := call.SetOut("half", xcode.NewInt(int32T, v.Int/2)); err != nil {
			return err
		}
		if err := call.SetOut("acc", xcode.NewInt(int32T, acc.Int+v.Int)); err != nil {
			return err
		}
		call.Result = xcode.NewInt(int32T, v.Int)
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
	spec := sidl.CarRentalSID().FSM
	table := newSessionTable(spec, 2)
	// Three distinct sessions with capacity two: the first is evicted.
	if err := table.step("r1", "s1", "SelectCar"); err != nil {
		t.Fatal(err)
	}
	if err := table.step("r1", "s2", "SelectCar"); err != nil {
		t.Fatal(err)
	}
	if err := table.step("r1", "s3", "SelectCar"); err != nil {
		t.Fatal(err)
	}
	if len(table.table) != 2 {
		t.Fatalf("table size = %d, want 2", len(table.table))
	}
	// s1 was evicted; a new step for it starts a fresh session in INIT,
	// so Commit is illegal again.
	if err := table.step("r1", "s1", "Commit"); err == nil {
		t.Fatal("evicted session must restart at INIT")
	}
	// s3 is still live and in SELECTED.
	if err := table.step("r1", "s3", "Commit"); err != nil {
		t.Fatalf("live session lost state: %v", err)
	}
}

func TestChunkCodecErrors(t *testing.T) {
	if _, _, err := consumeChunk(nil); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := consumeChunk([]byte{5, 1}); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := consumeChunk([]byte{0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80}); !errors.Is(err, ErrBadArgs) {
		t.Fatalf("overflow err = %v", err)
	}
	// Round trip sanity for multi-byte length prefixes.
	long := bytes.Repeat([]byte{7}, 1<<15)
	chunk, rest, err := consumeChunk(appendChunk(nil, long))
	if err != nil || !bytes.Equal(chunk, long) || len(rest) != 0 {
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
