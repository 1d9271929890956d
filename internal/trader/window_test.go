package trader

import (
	"context"
	"os"
	"runtime"
	"strconv"
	"sync"
	"testing"
	"unsafe"
	"weak"

	"cosm/internal/ref"
	"cosm/internal/sidl"
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

// TestImportScratchKeepsNoWindow: both ends of a remote import work in
// pooled scratch (DESIGN.md §6), which holds no string once the call
// returns. The server's would keep the offers it rendered alive past
// their withdrawal, the client's the whole reply after the caller
// dropped what it was given, for as long as the pools keep them.
func TestImportScratchKeepsNoWindow(t *testing.T) {
	// One P, so that what the handler and the client hand back to their
	// pools is what this goroutine takes out of them.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	node, tr, traderRef := startTraderNode(t, "scratch-windows", "T")
	ctx := context.Background()
	tc, err := DialTrader(ctx, node.Pool(), traderRef)
	if err != nil {
		t.Fatal(err)
	}
	// Over 16 bytes, and built at run time: the runtime may batch
	// smaller strings into one block, which a live neighbour keeps. The
	// service is in the server's wire form of the offer, the property's
	// name in its records.
	service := "CarRentalService-" + strconv.Itoa(os.Getpid())
	name := "UndeclaredAttribute-" + strconv.Itoa(os.Getpid())
	props := append(carProps("FIAT_Uno", 80, "USD"), sidl.Property{Name: name, Value: sidl.StringLit("x")})
	id, err := tr.Export("CarRentalService", ref.New("tcp:10.0.0.1:7000", service), props)
	if err != nil {
		t.Fatal(err)
	}
	props = nil
	ms, err := tc.ImportGraded(ctx, NewImport("CarRentalService"))
	if err != nil || len(ms) != 1 || ms[0].Ref.Service != service {
		t.Fatalf("ImportGraded = %+v, %v", ms, err)
	}
	// Take both scratches out of their pools, which a collection would
	// otherwise empty, and hold them through the collections below.
	var replies []*importReply
	for r := importReplies.Get().(*importReply); cap(r.ws) > 0; r = importReplies.Get().(*importReply) {
		replies = append(replies, r)
	}
	var wires []*[]offerWire
	for ws := importWires.Get().(*[]offerWire); cap(*ws) > 0; ws = importWires.Get().(*[]offerWire) {
		wires = append(wires, ws)
	}
	if !raceDetector && (len(replies) == 0 || len(wires) == 0) {
		t.Fatalf("found %d server and %d client scratches in the pools, want one or more of each", len(replies), len(wires))
	}
	storedService, storedName := weak.Make(unsafe.StringData(service)), weak.Make(unsafe.StringData(name))
	reply := weak.Make(unsafe.StringData(ms[0].Type)) // a window of the reply
	ms, service, name = nil, "", ""
	if err := tr.Withdraw(id); err != nil {
		t.Fatal(err)
	}
	for i := 0; storedService.Value() != nil || storedName.Value() != nil || reply.Value() != nil; i++ {
		if i == 100 {
			t.Fatalf("the scratches keep alive the withdrawn offer's service: %v, its property's name: %v; the dropped reply: %v",
				storedService.Value() != nil, storedName.Value() != nil, reply.Value() != nil)
		}
		runtime.GC()
	}
	runtime.KeepAlive(replies)
	runtime.KeepAlive(wires)
}
