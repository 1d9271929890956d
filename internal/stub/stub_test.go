package stub

import (
	"context"
	"errors"
	"testing"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

func startStaticServer(t *testing.T, loopName string) (*wire.Server, ref.ServiceRef, *wire.Pool) {
	t.Helper()
	srv := wire.NewServer(wire.WithServerLog(func(string, ...any) {}))
	if err := srv.Register("CarRentalService", Handler(FixedImpl{ChargePerDay: 80})); err != nil {
		t.Fatal(err)
	}
	ep, err := srv.ListenAndServe("loop:" + loopName)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = srv.Close() })
	pool := wire.NewPool()
	t.Cleanup(func() { _ = pool.Close() })
	return srv, ref.New(ep, "CarRentalService"), pool
}

func TestStaticClientStaticServer(t *testing.T) {
	_, carRef, pool := startStaticServer(t, "stub-basic")
	c, err := Dial(pool, carRef, "s1")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sel, err := c.SelectCar(ctx, SelectCarRequest{Model: FIATUno, BookingDate: "1994-06-21", Days: 3})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Available || sel.Charge != 240 || sel.Currency != USD {
		t.Fatalf("SelectCar = %+v", sel)
	}
	book, err := c.Commit(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !book.OK || book.Confirmation != "RES-STATIC" {
		t.Fatalf("Commit = %+v", book)
	}
	// Application errors propagate.
	if _, err := c.SelectCar(ctx, SelectCarRequest{Days: 0}); !errors.Is(err, wire.ErrRemote) {
		t.Fatalf("err = %v", err)
	}
}

// startDynamicServer hosts the SID-described car rental on the cosm
// runtime (FSM enforcement off so the stateless static client can call
// in any order).
func startDynamicServer(t *testing.T, loopName string) (*cosm.Node, ref.ServiceRef) {
	t.Helper()
	sid := sidl.CarRentalSID()
	svc, err := cosm.NewService(sid, cosm.WithoutFSMEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	boolT := sidl.Basic(sidl.Bool)
	svc.MustHandle("SelectCar", func(call *cosm.Call) error {
		var selection struct{ Days int64 }
		if err := call.Args(&selection); err != nil {
			return err
		}
		out := xcode.Zero(sid.Type("SelectCarReturn_t"))
		if err := out.SetField("available", xcode.NewBool(boolT, true)); err != nil {
			return err
		}
		if err := out.SetField("charge", xcode.NewFloat(sidl.Basic(sidl.Float64), 80*float64(selection.Days))); err != nil {
			return err
		}
		call.Result = out
		return nil
	})
	svc.MustHandle("Commit", func(call *cosm.Call) error {
		out := xcode.Zero(sid.Type("BookCarReturn_t"))
		if err := out.SetField("ok", xcode.NewBool(boolT, true)); err != nil {
			return err
		}
		if err := out.SetField("confirmation", xcode.NewString(sidl.Basic(sidl.String), "RES-DYN")); err != nil {
			return err
		}
		call.Result = out
		return nil
	})
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, node.MustRefFor("CarRentalService")
}

func TestStaticClientAgainstDynamicServer(t *testing.T) {
	// Byte-compatibility: the hand-written stub speaks exactly the
	// encoding the dynamic runtime derives from the SID.
	node, carRef := startDynamicServer(t, "stub-compat")
	c, err := Dial(node.Pool(), carRef, "compat-session")
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	sel, err := c.SelectCar(ctx, SelectCarRequest{Model: VWGolf, BookingDate: "1994-07-01", Days: 2})
	if err != nil {
		t.Fatal(err)
	}
	if !sel.Available || sel.Charge != 160 {
		t.Fatalf("SelectCar = %+v", sel)
	}
	book, err := c.Commit(ctx)
	if err != nil || book.Confirmation != "RES-DYN" {
		t.Fatalf("Commit = %+v, %v", book, err)
	}
}

func TestDynamicClientAgainstStaticServer(t *testing.T) {
	// The reverse direction: a client that got the SID out of band can
	// call the static server dynamically — but the static server cannot
	// be described (the paper's closed-system limitation).
	_, carRef, pool := startStaticServer(t, "stub-reverse")
	ctx := context.Background()

	if _, err := cosm.Describe(ctx, pool, carRef); err == nil {
		t.Fatal("a static 1994 server must not be describable")
	}

	sid := sidl.CarRentalSID()
	conn, err := cosm.BindWithSID(pool, carRef, sid)
	if err != nil {
		t.Fatal(err)
	}
	arg := xcode.Zero(sid.Type("SelectCar_t"))
	if err := arg.SetField("days", xcode.NewInt(sidl.Basic(sidl.Int32), 5)); err != nil {
		t.Fatal(err)
	}
	res, err := conn.Invoke(ctx, "SelectCar", arg)
	if err != nil {
		t.Fatal(err)
	}
	charge, err := res.Value.Field("charge")
	if err != nil || charge.Float != 400 {
		t.Fatalf("charge = %v, %v", charge, err)
	}
}

func TestCodecRejectsJunk(t *testing.T) {
	if _, err := decodeSelectCar("\x09"); !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v", err)
	}
	if _, err := decodeSelectReturn("\x02\x00\x00"); !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v", err)
	}
	if _, err := decodeBookReturn("\x01\xc8\x01"); !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v", err)
	}
	if _, _, err := consumeChunk("\xc8"); !errors.Is(err, ErrDecode) {
		t.Fatalf("err = %v", err)
	}
}

func TestCodecRoundTrips(t *testing.T) {
	reqs := []SelectCarRequest{
		{Model: AUDI, BookingDate: "", Days: 0},
		{Model: VWGolf, BookingDate: "1994-12-31", Days: 1 << 20},
		{Model: FIATUno, BookingDate: "x", Days: -1},
	}
	for _, r := range reqs {
		got, err := decodeSelectCar(string(encodeSelectCar(r)))
		if err != nil || got != r {
			t.Fatalf("SelectCarRequest round trip: %+v vs %+v (%v)", got, r, err)
		}
	}
	rets := []SelectCarReturn{
		{Available: true, Charge: 99.5, Currency: GBP},
		{},
	}
	for _, r := range rets {
		got, err := decodeSelectReturn(string(encodeSelectReturn(r)))
		if err != nil || got != r {
			t.Fatalf("SelectCarReturn round trip: %+v vs %+v (%v)", got, r, err)
		}
	}
	books := []BookCarReturn{
		{OK: true, Confirmation: "RES-1"},
		{},
	}
	for _, r := range books {
		got, err := decodeBookReturn(string(encodeBookReturn(r)))
		if err != nil || got != r {
			t.Fatalf("BookCarReturn round trip: %+v vs %+v (%v)", got, r, err)
		}
	}
}
