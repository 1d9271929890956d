package trader

import (
	"context"
	"sync"
	"testing"
	"unsafe"

	"cosm/internal/ref"
	"cosm/internal/wire"
)

// TestExportedOfferKeepsNoWindow: a server reads each request into one
// string, and the strings a handler decodes from it are windows of that
// string. An offer outlives its export, so the handlers clone what they
// keep: no string of an offer exported, exported in a batch or replaced
// over the wire points into a request, which the offer would otherwise
// keep alive whole.
func TestExportedOfferKeepsNoWindow(t *testing.T) {
	tr := New("T1", newCarRepo(t))
	svc, err := NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	// A span holds its request's body, which keeps the request's string
	// alive: freed, its memory could hold a clone.
	type span struct {
		lo, hi uintptr
		body   string
	}
	var mu sync.Mutex
	var requests []span
	srv := wire.NewServer(wire.WithServerLog(func(string, ...any) {}))
	defer srv.Close()
	err = srv.Register(ServiceName, wire.HandlerFunc(func(ctx context.Context, remote string, req *wire.Request) *wire.Response {
		// Service, Op and Received are windows of the request's one
		// string, in that order.
		lo := uintptr(unsafe.Pointer(unsafe.StringData(req.Service)))
		hi := uintptr(unsafe.Pointer(unsafe.StringData(req.Received))) + uintptr(len(req.Received))
		mu.Lock()
		requests = append(requests, span{lo, hi, req.Received})
		mu.Unlock()
		return svc.ServeCOSM(ctx, remote, req)
	}))
	if err != nil {
		t.Fatal(err)
	}
	bound, err := srv.ListenAndServe("loop:export-windows")
	if err != nil {
		t.Fatal(err)
	}
	pool := wire.NewPool()
	defer pool.Close()
	ctx := context.Background()
	tc, err := DialTrader(ctx, pool, ref.New(bound, ServiceName))
	if err != nil {
		t.Fatal(err)
	}

	if _, err := tc.Export(ctx, "CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD")); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.ExportAll(ctx, []ExportItem{{Type: "CarRentalService", Ref: carRef(2), Props: carProps("AUDI", 90, "DEM")}}); err != nil {
		t.Fatal(err)
	}
	replaced, err := tc.Export(ctx, "CarRentalService", carRef(3), carProps("VW_Golf", 70, "USD"))
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.Replace(ctx, replaced, carProps("FIAT_Uno", 75, "GBP")); err != nil {
		t.Fatal(err)
	}

	offers, err := tr.Import(ctx, NewImport("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 3 {
		t.Fatalf("imported %d offers, want 3", len(offers))
	}
	mu.Lock()
	defer mu.Unlock()
	window := func(what, s string) {
		p := uintptr(unsafe.Pointer(unsafe.StringData(s)))
		for _, r := range requests {
			if len(s) > 0 && p >= r.lo && p < r.hi {
				t.Errorf("%s %q is a window of a request", what, s)
			}
		}
	}
	for _, o := range offers {
		window("offer type", o.Type)
		window("ref endpoint", o.Ref.Endpoint)
		window("ref service", o.Ref.Service)
		for name, lit := range o.Props {
			window("property name", name)
			window("property "+name, lit.Str)
		}
	}
}
