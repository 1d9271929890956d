package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
)

// startMarket hosts a car rental, browser and trader on one loopback
// node and returns their reference strings.
func startMarket(t *testing.T, loopName string) (carRef, browserRef, traderRef string) {
	t.Helper()
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))

	svc, impl, err := carrental.New()
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}

	dir := browser.NewDirectory()
	bsvc, err := browser.NewService(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(browser.ServiceName, bsvc); err != nil {
		t.Fatal(err)
	}

	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		t.Fatal(err)
	}
	tr := trader.New("cli-test", repo)
	tsvc, err := trader.NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(trader.ServiceName, tsvc); err != nil {
		t.Fatal(err)
	}

	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })

	self := node.MustRefFor("CarRentalService")
	if err := dir.Register(impl.SID(), self); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.ExportSID(impl.SID(), self); err != nil {
		t.Fatal(err)
	}
	return self.String(),
		node.MustRefFor(browser.ServiceName).String(),
		node.MustRefFor(trader.ServiceName).String()
}

func capture(t *testing.T, f func() error) (string, error) {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	defer func() { os.Stdout = old }()
	done := make(chan string, 1)
	go func() {
		var b strings.Builder
		_, _ = io.Copy(&b, r)
		done <- b.String()
	}()
	runErr := f()
	_ = w.Close()
	return <-done, runErr
}

func TestDescribe(t *testing.T) {
	carRef, _, _ := startMarket(t, "cli-describe")
	out, err := capture(t, func() error { return run([]string{"describe", carRef}) })
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"module CarRentalService {", "module COSM_FSM {"} {
		if !strings.Contains(out, want) {
			t.Fatalf("describe output lacks %q:\n%s", want, out)
		}
	}
}

func TestUICommand(t *testing.T) {
	carRef, _, _ := startMarket(t, "cli-ui")
	out, err := capture(t, func() error { return run([]string{"ui", carRef}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "[ Invoke SelectCar ]") {
		t.Fatalf("ui output lacks invoke button:\n%s", out)
	}
}

func TestBrowseCommand(t *testing.T) {
	_, browserRef, _ := startMarket(t, "cli-browse")
	out, err := capture(t, func() error { return run([]string{"browse", browserRef, "rent"}) })
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CarRentalService") {
		t.Fatalf("browse output = %q", out)
	}
	out, err = capture(t, func() error { return run([]string{"browse", browserRef, "zeppelin"}) })
	if err != nil || !strings.Contains(out, "no services found") {
		t.Fatalf("browse(zeppelin) = %q, %v", out, err)
	}
}

func TestInvokeCommand(t *testing.T) {
	carRef, _, _ := startMarket(t, "cli-invoke")
	out, err := capture(t, func() error {
		return run([]string{"invoke", carRef, "SelectCar",
			"SelectCar.selection.model=FIAT_Uno",
			"SelectCar.selection.days=3"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "charge: 240") {
		t.Fatalf("invoke output = %q", out)
	}
	if !strings.Contains(out, "[state: SELECTED;") {
		t.Fatalf("invoke output lacks FSM state: %q", out)
	}
}

func TestSessionCommand(t *testing.T) {
	carRef, _, _ := startMarket(t, "cli-session")
	out, err := capture(t, func() error {
		return run([]string{"session", carRef,
			"SelectCar SelectCar.selection.model=VW_Golf SelectCar.selection.days=2",
			"Commit"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "confirmation:") || !strings.Contains(out, "VW_Golf-2d") {
		t.Fatalf("session output = %q", out)
	}
}

func TestSessionProtocolViolation(t *testing.T) {
	carRef, _, _ := startMarket(t, "cli-protocol")
	_, err := capture(t, func() error { return run([]string{"invoke", carRef, "Commit"}) })
	if err == nil || !strings.Contains(err.Error(), "protocol violation") {
		t.Fatalf("err = %v", err)
	}
}

func TestImportCommand(t *testing.T) {
	_, _, traderRef := startMarket(t, "cli-import")
	out, err := capture(t, func() error {
		return run([]string{"import", traderRef, "CarRentalService",
			"-constraint", "ChargePerDay < 100", "-policy", "min:ChargePerDay"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "CarRentalService") || !strings.Contains(out, "ChargePerDay = 80") {
		t.Fatalf("import output = %q", out)
	}
	out, err = capture(t, func() error {
		return run([]string{"import", traderRef, "CarRentalService", "-constraint", "ChargePerDay > 1000"})
	})
	if err != nil || !strings.Contains(out, "no matching offers") {
		t.Fatalf("import(no match) = %q, %v", out, err)
	}
}

func TestImportGradedFlags(t *testing.T) {
	_, _, traderRef := startMarket(t, "cli-graded")
	out, err := capture(t, func() error {
		return run([]string{"import", traderRef, "CarRentalService",
			"-conformant", "-min-grade", "exact", "-policy", "score"})
	})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "exact") || !strings.Contains(out, "1.00") {
		t.Fatalf("graded import output lacks grade/score columns: %q", out)
	}
	if _, err := capture(t, func() error {
		return run([]string{"import", traderRef, "CarRentalService", "-min-grade", "bogus"})
	}); err == nil {
		t.Fatal("bogus -min-grade must fail")
	}
}

func TestStatsSurfacesMatchGrades(t *testing.T) {
	reg := obs.NewRegistry()
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		t.Fatal(err)
	}
	tr := trader.New("cli-stats", repo, trader.WithMetrics(reg))
	_, impl, err := carrental.New()
	if err != nil {
		t.Fatal(err)
	}
	self := ref.New("loop:cli-stats", "CarRentalService")
	if _, err := tr.ExportSID(impl.SID(), self); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Import(context.Background(), trader.ImportRequest{Type: "CarRentalService"}); err != nil {
		t.Fatal(err)
	}

	srv := httptest.NewServer(obs.Handler(reg, func() error { return nil }, obs.MuxConfig{}))
	defer srv.Close()
	var buf strings.Builder
	if err := stats(&buf, strings.TrimPrefix(srv.URL, "http://"), time.Second); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "cosm_trader_match_grade_total{exact}") {
		t.Fatalf("stats output lacks grade counter:\n%s", buf.String())
	}
}

func TestTimeoutFlag(t *testing.T) {
	carRef, _, traderRef := startMarket(t, "cli-timeout")
	// A generous timeout leaves the commands unaffected...
	out, err := capture(t, func() error {
		return run([]string{"-timeout", "30s", "describe", carRef})
	})
	if err != nil || !strings.Contains(out, "module CarRentalService {") {
		t.Fatalf("describe with timeout = %q, %v", out, err)
	}
	// ...while an already-expired one fails every subcommand up front:
	// the deadline is checked before the request is even sent.
	for _, args := range [][]string{
		{"-timeout", "1ns", "describe", carRef},
		{"-timeout", "1ns", "invoke", carRef, "SelectCar"},
		{"-timeout", "1ns", "import", traderRef, "CarRentalService"},
	} {
		if _, err := capture(t, func() error { return run(args) }); !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("run(%v) = %v, want deadline exceeded", args, err)
		}
	}
}

func TestCLIErrors(t *testing.T) {
	carRef, _, _ := startMarket(t, "cli-errors")
	cases := [][]string{
		nil,
		{"describe"},
		{"describe", "not-a-ref"},
		{"frobnicate", carRef},
		{"invoke", carRef},
		{"invoke", carRef, "SelectCar", "novalue"},
		{"import", carRef},
	}
	for _, args := range cases {
		if _, err := capture(t, func() error { return run(args) }); err == nil {
			t.Fatalf("run(%v) should fail", args)
		}
	}
}

func TestReplSession(t *testing.T) {
	carRef, _, _ := startMarket(t, "cli-repl")
	script := strings.Join([]string{
		"help",
		"ops",
		"state",
		"Commit", // illegal in INIT: printed error, session continues
		"SelectCar SelectCar.selection.model=FIAT_Uno SelectCar.selection.days=2",
		"state",
		"Commit",
		"ui",
		"quit",
	}, "\n")
	out, err := capture(t, func() error {
		return runWithInput([]string{"repl", carRef}, strings.NewReader(script))
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"bound to CarRentalService",
		"* SelectCar",
		"state INIT; allowed: SelectCar",
		"error:", // the intercepted Commit
		"charge: 160",
		"state SELECTED",
		"confirmation:",
		"[ Invoke SelectCar ]",
		"bye",
	} {
		if !strings.Contains(out, want) {
			t.Fatalf("repl output lacks %q:\n%s", want, out)
		}
	}
}

func TestReplEOFEndsCleanly(t *testing.T) {
	carRef, _, _ := startMarket(t, "cli-repl-eof")
	if _, err := capture(t, func() error {
		return runWithInput([]string{"repl", carRef}, strings.NewReader("state\n"))
	}); err != nil {
		t.Fatal(err)
	}
}

// startTrader hosts a bare trader (CarRentalService type predefined) on
// its own loopback node and returns its reference string plus the
// in-process trader for direct inspection.
func startTrader(t *testing.T, loopName, id string) (string, *trader.Trader) {
	t.Helper()
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		t.Fatal(err)
	}
	tr := trader.New(id, repo)
	tsvc, err := trader.NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(trader.ServiceName, tsvc); err != nil {
		t.Fatal(err)
	}
	// Wire-level LinkAdd resolves peer refs through this node's pool,
	// exactly like traderd.
	tr.SetLinkDialer(func(ctx context.Context, peer ref.ServiceRef) (trader.Federate, error) {
		return trader.DialTrader(ctx, node.Pool(), peer)
	})
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node.MustRefFor(trader.ServiceName).String(), tr
}

// The links subcommand drives the trader's link registry end to end:
// add, list (before and after gossip), a routed federated import with
// the new scatter flags, and remove.
func TestLinksCommand(t *testing.T) {
	hubRef, hub := startTrader(t, "cli-links-hub", "hub")
	peerRef, peer := startTrader(t, "cli-links-peer", "peer-1")

	if _, err := peer.Export("CarRentalService",
		ref.New("tcp:10.9.3.1:7000", "CarRentalService"), rentalProps("FIAT_Uno", 42)); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error { return run([]string{"links", hubRef}) })
	if err != nil || !strings.Contains(out, "no federation links") {
		t.Fatalf("links list (empty) = %q, %v", out, err)
	}

	out, err = capture(t, func() error { return run([]string{"links", hubRef, "add", "p1", peerRef}) })
	if err != nil || !strings.Contains(out, `linked "p1"`) {
		t.Fatalf("links add = %q, %v", out, err)
	}
	if _, err := capture(t, func() error { return run([]string{"links", hubRef, "add", "p1", peerRef}) }); err == nil {
		t.Fatal("duplicate links add should fail")
	}

	out, err = capture(t, func() error { return run([]string{"links", hubRef}) })
	if err != nil || !strings.Contains(out, "p1") || !strings.Contains(out, "closed") || !strings.Contains(out, "never") {
		t.Fatalf("links list = %q, %v", out, err)
	}

	if pushed, failed := hub.GossipRound(context.Background(), time.Second); pushed != 1 || failed != 0 {
		t.Fatalf("gossip round: pushed %d failed %d", pushed, failed)
	}
	out, err = capture(t, func() error { return run([]string{"links", hubRef}) })
	if err != nil || !strings.Contains(out, "peer-1") || strings.Contains(out, "never") {
		t.Fatalf("links list after gossip = %q, %v", out, err)
	}

	out, err = capture(t, func() error {
		return run([]string{"import", hubRef, "CarRentalService",
			"-hops", "1", "-max-peers", "2", "-hedge", "100ms"})
	})
	if err != nil || !strings.Contains(out, "FIAT_Uno") {
		t.Fatalf("federated import = %q, %v", out, err)
	}
	if st := hub.FedStats(); st.Routed != 1 {
		t.Fatalf("fed stats = %+v, want one routed fan-out", st)
	}

	out, err = capture(t, func() error { return run([]string{"links", hubRef, "remove", "p1"}) })
	if err != nil || !strings.Contains(out, `removed link "p1"`) {
		t.Fatalf("links remove = %q, %v", out, err)
	}
	if _, err := capture(t, func() error { return run([]string{"links", hubRef, "remove", "p1"}) }); err == nil {
		t.Fatal("removing an unknown link should fail")
	}
	if _, err := capture(t, func() error { return run([]string{"links", hubRef, "frobnicate"}) }); err == nil {
		t.Fatal("unknown links subcommand should fail")
	}
}

func rentalProps(model string, charge float64) []sidl.Property {
	return []sidl.Property{
		{Name: "CarModel", Value: sidl.EnumLit(model)},
		{Name: "AverageMilage", Value: sidl.IntLit(52000)},
		{Name: "ChargePerDay", Value: sidl.FloatLit(charge)},
		{Name: "ChargeCurrency", Value: sidl.EnumLit("USD")},
	}
}

// Dump captures a trader's live offers; restore re-creates them at
// another trader with fresh IDs and equivalent leases.
func TestDumpRestoreRoundTrip(t *testing.T) {
	srcRef, src := startTrader(t, "cli-dump-src", "dump-src")
	dstRef, dst := startTrader(t, "cli-dump-dst", "dump-dst")

	if _, err := src.Export("CarRentalService",
		ref.New("tcp:10.9.0.1:7000", "CarRentalService"), rentalProps("FIAT_Uno", 49)); err != nil {
		t.Fatal(err)
	}
	if _, err := src.ExportLease("CarRentalService",
		ref.New("tcp:10.9.0.2:7000", "CarRentalService"), rentalProps("VW_Golf", 99), time.Hour); err != nil {
		t.Fatal(err)
	}

	out, err := capture(t, func() error { return run([]string{"dump", srcRef}) })
	if err != nil {
		t.Fatalf("dump: %v", err)
	}
	var doc struct {
		Offers []trader.OfferRecord `json:"offers"`
	}
	if err := json.Unmarshal([]byte(out), &doc); err != nil {
		t.Fatalf("dump output is not JSON: %v\n%s", err, out)
	}
	if len(doc.Offers) != 2 {
		t.Fatalf("dump holds %d offers, want 2", len(doc.Offers))
	}

	file := filepath.Join(t.TempDir(), "offers.json")
	if err := os.WriteFile(file, []byte(out), 0o600); err != nil {
		t.Fatal(err)
	}
	msg, err := capture(t, func() error { return run([]string{"restore", dstRef, file}) })
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !strings.Contains(msg, "restored 2 offers") {
		t.Fatalf("restore output %q", msg)
	}

	// The restored market is equivalent modulo trader-assigned IDs and
	// the lease re-anchoring: same types, refs, props; the leased offer
	// still expires.
	got, err := dst.Import(context.Background(), trader.NewImport("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("restored trader serves %d offers, want 2", len(got))
	}
	byRef := map[string]trader.OfferRecord{}
	for _, o := range got {
		rec := o.Record()
		if strings.HasPrefix(rec.ID, "dump-src/") {
			t.Fatalf("restored offer kept source ID %q", rec.ID)
		}
		byRef[rec.Ref] = rec
	}
	for _, want := range doc.Offers {
		rec, ok := byRef[want.Ref]
		if !ok {
			t.Fatalf("offer for %s missing after restore", want.Ref)
		}
		if rec.Type != want.Type || fmt.Sprint(rec.Props) != fmt.Sprint(want.Props) {
			t.Fatalf("restored offer %+v, want type/props of %+v", rec, want)
		}
		if (rec.Expires != 0) != (want.Expires != 0) {
			t.Fatalf("restored offer lease %d, source %d", rec.Expires, want.Expires)
		}
	}
}

// Expired offers in a dump are skipped by restore, not resurrected;
// "-" reads the dump from stdin.
func TestRestoreSkipsExpired(t *testing.T) {
	dstRef, dst := startTrader(t, "cli-restore-expired", "restore-dst")
	past := time.Now().Add(-time.Minute).UnixNano()
	dump := fmt.Sprintf(`{"offers":[
		{"id":"x/o1","type":"CarRentalService","ref":"cosm://tcp:10.9.1.1:7000/CarRentalService",
		 "props":[{"name":"CarModel","kind":"enum","text":"FIAT_Uno"},
		          {"name":"AverageMilage","kind":"int","text":"1000"},
		          {"name":"ChargePerDay","kind":"float","text":"10"},
		          {"name":"ChargeCurrency","kind":"enum","text":"USD"}]},
		{"id":"x/o2","type":"CarRentalService","ref":"cosm://tcp:10.9.1.2:7000/CarRentalService",
		 "props":[{"name":"CarModel","kind":"enum","text":"VW_Golf"},
		          {"name":"AverageMilage","kind":"int","text":"2000"},
		          {"name":"ChargePerDay","kind":"float","text":"20"},
		          {"name":"ChargeCurrency","kind":"enum","text":"USD"}],
		 "expires":%d}]}`, past)
	msg, err := capture(t, func() error {
		return runWithInput([]string{"restore", dstRef, "-"}, strings.NewReader(dump))
	})
	if err != nil {
		t.Fatalf("restore: %v", err)
	}
	if !strings.Contains(msg, "restored 1 offers (1 expired, skipped)") {
		t.Fatalf("restore output %q", msg)
	}
	if n := dst.OfferCount(); n != 1 {
		t.Fatalf("trader holds %d offers, want 1", n)
	}
}

// A restore against a trader that lacks the dumped service type fails
// whole (ExportAll is all-or-nothing) with a useful error.
func TestRestoreUnknownType(t *testing.T) {
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	tr := trader.New("bare", typemgr.NewRepo())
	tsvc, err := trader.NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(trader.ServiceName, tsvc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:cli-restore-unknown"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()
	dump := `{"offers":[{"id":"x/o1","type":"NoSuchService","ref":"cosm://tcp:10.9.2.1:7000/NoSuchService"}]}`
	_, err = capture(t, func() error {
		return runWithInput([]string{"restore", node.MustRefFor(trader.ServiceName).String(), "-"},
			strings.NewReader(dump))
	})
	if err == nil || !strings.Contains(err.Error(), "NoSuchService") {
		t.Fatalf("restore of unknown type: err = %v", err)
	}
	if n := tr.OfferCount(); n != 0 {
		t.Fatalf("trader holds %d offers after failed restore, want 0", n)
	}
}
