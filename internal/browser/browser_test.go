package browser

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"cosm/internal/cosm"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/xcode"
)

func TestDirectoryLocal(t *testing.T) {
	var logs strings.Builder
	reg := obs.NewRegistry()
	d := NewDirectory(WithDirectoryLogger(obs.NewLogger(&logs, "browser")), WithDirectoryMetrics(reg))
	sid := sidl.CarRentalSID()
	r := ref.New("tcp:h:1", "CarRentalService")

	if err := d.Register(sid, r); err != nil {
		t.Fatal(err)
	}
	if err := d.Register(nil, r); !errors.Is(err, ErrBadSID) {
		t.Fatalf("nil SID err = %v", err)
	}
	if err := d.Register(&sidl.SID{}, r); !errors.Is(err, ErrBadSID) {
		t.Fatalf("invalid SID err = %v", err)
	}

	e, err := d.Get("CarRentalService")
	if err != nil || e.Ref != r || e.SID.ServiceName != "CarRentalService" {
		t.Fatalf("Get = %+v, %v", e, err)
	}
	if _, err := d.Get("Ghost"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("err = %v", err)
	}

	// Re-registration replaces the entry (provider moved).
	r2 := ref.New("tcp:h:2", "CarRentalService")
	if err := d.Register(sid, r2); err != nil {
		t.Fatal(err)
	}
	if e, _ := d.Get("CarRentalService"); e.Ref != r2 {
		t.Fatalf("upsert did not replace: %+v", e)
	}
	if d.Len() != 1 {
		t.Fatalf("Len = %d", d.Len())
	}

	if err := d.Withdraw("CarRentalService"); err != nil {
		t.Fatal(err)
	}
	if err := d.Withdraw("CarRentalService"); !errors.Is(err, ErrNotRegistered) {
		t.Fatalf("double withdraw err = %v", err)
	}

	// What happened is on /metrics and in the log: two registrations
	// (the upsert counts), three fetches, one withdrawal, nothing left.
	var prom strings.Builder
	reg.WritePrometheus(&prom)
	for _, want := range []string{
		"cosm_browser_registrations_total 2", "cosm_browser_fetches_total 3",
		"cosm_browser_withdrawals_total 1", "cosm_browser_entries 0",
	} {
		if !strings.Contains(prom.String(), want+"\n") {
			t.Errorf("exposition missing %q", want)
		}
	}
	if n := strings.Count(logs.String(), "event=register"); n != 2 || !strings.Contains(logs.String(), "event=withdraw service=CarRentalService") {
		t.Errorf("log = %q, want two register lines and one withdraw line", logs.String())
	}
}

func TestDirectorySearch(t *testing.T) {
	d := NewDirectory()
	car := sidl.CarRentalSID()
	if err := d.Register(car, ref.New("tcp:h:1", "cars")); err != nil {
		t.Fatal(err)
	}
	img, err := sidl.Parse(`
// Converts raster images between encodings.
module ImageConvert {
    interface COSM_Operations {
        // Convert an image from format Y to format X.
        string Convert(in string data);
    };
};
`)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Register(img, ref.New("tcp:h:2", "img")); err != nil {
		t.Fatal(err)
	}

	tests := []struct {
		keyword string
		want    []string
	}{
		{"", []string{"CarRentalService", "ImageConvert"}},
		{"car", []string{"CarRentalService"}},
		{"BOOKING", []string{"CarRentalService"}}, // case-insensitive, from annotations
		{"raster", []string{"ImageConvert"}},
		{"convert", []string{"ImageConvert"}},
		{"zeppelin", nil},
	}
	for _, tt := range tests {
		t.Run(tt.keyword, func(t *testing.T) {
			got := d.Search(tt.keyword)
			if len(got) != len(tt.want) {
				t.Fatalf("Search(%q) = %d entries, want %d", tt.keyword, len(got), len(tt.want))
			}
			for i := range tt.want {
				if got[i].Name != tt.want[i] {
					t.Fatalf("Search(%q)[%d] = %q, want %q", tt.keyword, i, got[i].Name, tt.want[i])
				}
			}
		})
	}
	if names := d.Names(); len(names) != 2 || names[0] != "CarRentalService" {
		t.Fatalf("Names = %v", names)
	}
}

func startBrowserNode(t *testing.T, loopName string) (*cosm.Node, ref.ServiceRef) {
	t.Helper()
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	svc, err := NewService(NewDirectory())
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(ServiceName, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, node.MustRefFor(ServiceName)
}

func TestBrowserRemote(t *testing.T) {
	node, browserRef := startBrowserNode(t, "brw-remote")
	ctx := context.Background()
	bc, err := DialBrowser(ctx, node.Pool(), browserRef)
	if err != nil {
		t.Fatal(err)
	}

	sid := sidl.CarRentalSID()
	target := ref.New("tcp:provider:7", "CarRentalService")
	if err := bc.RegisterSID(ctx, sid, target); err != nil {
		t.Fatal(err)
	}

	names, err := bc.List(ctx)
	if err != nil || len(names) != 1 || names[0] != "CarRentalService" {
		t.Fatalf("List = %v, %v", names, err)
	}

	e, err := bc.Get(ctx, "CarRentalService")
	if err != nil {
		t.Fatal(err)
	}
	if e.Ref != target {
		t.Fatalf("Get ref = %v", e.Ref)
	}
	// The SID survives the round trip with its extensions intact.
	if !e.SID.FSM.Restricted() || e.SID.Trader == nil || e.SID.Trader.ServiceID != 4711 {
		t.Fatalf("SID extensions lost: %+v", e.SID)
	}
	if err := e.SID.ConformsTo(sid); err != nil {
		t.Fatalf("round-tripped SID conformance: %v", err)
	}

	found, err := bc.Search(ctx, "rent")
	if err != nil || len(found) != 1 {
		t.Fatalf("Search = %v, %v", found, err)
	}
	none, err := bc.Search(ctx, "spaceship")
	if err != nil || len(none) != 0 {
		t.Fatalf("Search(spaceship) = %v, %v", none, err)
	}

	if err := bc.Withdraw(ctx, "CarRentalService"); err != nil {
		t.Fatal(err)
	}
	if _, err := bc.Get(ctx, "CarRentalService"); err == nil {
		t.Fatal("Get after withdraw must fail")
	}
	if err := bc.Withdraw(ctx, "CarRentalService"); err == nil {
		t.Fatal("double withdraw must fail remotely")
	}
}

func TestBrowserCascade(t *testing.T) {
	// Browser B registers its own SID at browser A — "the browser may
	// also act as an application service as well and register its own
	// SID at yet another browser" (section 3.2). A client starting at A
	// discovers B, binds to it, and browses B's directory.
	nodeA, refA := startBrowserNode(t, "brw-cascade-a")
	nodeB, refB := startBrowserNode(t, "brw-cascade-b")
	ctx := context.Background()

	// Register an application service at B.
	bcB, err := DialBrowser(ctx, nodeB.Pool(), refB)
	if err != nil {
		t.Fatal(err)
	}
	car := sidl.CarRentalSID()
	carTarget := ref.New("tcp:provider:9", "CarRentalService")
	if err := bcB.RegisterSID(ctx, car, carTarget); err != nil {
		t.Fatal(err)
	}

	// Register B itself at A, using B's own served SID.
	bSID, err := cosm.Describe(ctx, nodeA.Pool(), refB)
	if err != nil {
		t.Fatal(err)
	}
	bcA, err := DialBrowser(ctx, nodeA.Pool(), refA)
	if err != nil {
		t.Fatal(err)
	}
	if err := bcA.RegisterSID(ctx, bSID, refB); err != nil {
		t.Fatal(err)
	}

	// A client at A browses, finds a browser entry, follows the
	// reference (step 3 of Fig. 4), and finds the car service at B.
	entries, err := bcA.Search(ctx, "browser")
	if err != nil || len(entries) != 1 {
		t.Fatalf("Search(browser) at A = %v, %v", entries, err)
	}
	next, err := DialBrowser(ctx, nodeA.Pool(), entries[0].Ref)
	if err != nil {
		t.Fatal(err)
	}
	cars, err := next.Search(ctx, "car")
	if err != nil || len(cars) != 1 || cars[0].Ref != carTarget {
		t.Fatalf("cascaded Search = %v, %v", cars, err)
	}
}

func TestBrowserRejectsBadSIDText(t *testing.T) {
	node, browserRef := startBrowserNode(t, "brw-bad")
	ctx := context.Background()
	conn, err := cosm.Bind(ctx, node.Pool(), browserRef)
	if err != nil {
		t.Fatal(err)
	}
	strT := sidl.Basic(sidl.String)
	refT := sidl.Basic(sidl.SvcRef)
	_, err = conn.Invoke(ctx, "RegisterSID",
		xcode.NewString(strT, "module Broken {"),
		xcode.Zero(refT))
	if err == nil {
		t.Fatal("registering unparseable SID text must fail")
	}
}

// TestDirectoryRefusesRefWithoutText: the journal and every listing
// carry a registration's reference as text, so a reference whose text
// does not parse back to it is refused before anything is journalled.
func TestDirectoryRefusesRefWithoutText(t *testing.T) {
	d := NewDirectory()
	for _, r := range []ref.ServiceRef{{}, {Endpoint: "tcp:h:1"}, ref.New("tcp:h:1", "a/b")} {
		if err := d.Register(sidl.CarRentalSID(), r); !errors.Is(err, ref.ErrBadRef) {
			t.Errorf("Register(%+v) = %v, want ref.ErrBadRef", r, err)
		}
	}
	if d.Len() != 0 {
		t.Fatalf("%d registrations accepted", d.Len())
	}
}

func TestDirectoryConcurrent(t *testing.T) {
	d := NewDirectory()
	done := make(chan error, 16)
	for i := 0; i < 16; i++ {
		go func(i int) {
			sid := sidl.CarRentalSID()
			sid.ServiceName = fmt.Sprintf("Svc%d", i)
			if err := d.Register(sid, ref.New("tcp:h:1", sid.ServiceName)); err != nil {
				done <- err
				return
			}
			_, err := d.Get(sid.ServiceName)
			done <- err
		}(i)
	}
	for i := 0; i < 16; i++ {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if d.Len() != 16 {
		t.Fatalf("Len = %d", d.Len())
	}
}
