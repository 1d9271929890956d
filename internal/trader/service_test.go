package trader

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/journal"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

// startTraderNode hosts a trader service on a loopback node.
func startTraderNode(t *testing.T, loopName, traderID string) (*cosm.Node, *Trader, ref.ServiceRef) {
	t.Helper()
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		t.Fatal(err)
	}
	tr := New(traderID, repo)
	svc, err := NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host(ServiceName, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, tr, node.MustRefFor(ServiceName)
}

// TestRemoteImportAllocs pins what one typed Client.ImportGraded of the
// canonical reply — five car offers of four properties each, the
// ordered walk answering — allocates over loop:, client and server
// together.
// The typed path goes straight between Go values and bytes; a change
// that builds an xcode.Value tree on it again fails here (with one at
// each end of each direction, the same import allocated 423). Frames
// are read through a buffer and written from pooled buffers, and the
// reply's property records share one array: with a fresh frame copy
// per write and a record slice per offer, it allocated 173. Each
// offer's numbers render into one string: with a strconv.Format* string
// per number (two allocations per float), it allocated 153; answered
// from an import-result cache, whose hit built a key string and copied
// the cached matches, it allocated 143.
func TestRemoteImportAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are exact only without the race detector")
	}
	node, tr, traderRef := startTraderNode(t, "trd-allocs", "T")
	for i := 1; i <= 8; i++ {
		if _, err := tr.Export("CarRentalService", carRef(i), carProps("FIAT_Uno", float64(40+10*i), "USD")); err != nil {
			t.Fatal(err)
		}
	}
	ctx := context.Background()
	tc, err := DialTrader(ctx, node.Pool(), traderRef)
	if err != nil {
		t.Fatal(err)
	}
	req := NewImport("CarRentalService", Where("ChargePerDay < 100"), OrderBy("min:ChargePerDay"), Limit(5))
	call := func() {
		if ms, err := tc.ImportGraded(ctx, req); err != nil || len(ms) != 5 {
			t.Fatalf("ImportGraded = %d matches, %v", len(ms), err)
		}
	}
	call() // bind, dial and fill the caches outside the measurement
	if got := testing.AllocsPerRun(200, call); got != 142 {
		t.Fatalf("one remote import allocates %v, want 142", got)
	}
}

// TestRemoteCallRefusesWhatCannotTravel: a typed call encodes nothing
// its receiver would read differently. An import limit of 2^32+5 once
// reached the trader as max 5, and an offer target with no textual form
// was exported and then failed every import of its type; both are
// refused at the caller now, and the trader is untouched.
func TestRemoteCallRefusesWhatCannotTravel(t *testing.T) {
	node, tr, traderRef := startTraderNode(t, "trd-refuse", "T")
	ctx := context.Background()
	tc, err := DialTrader(ctx, node.Pool(), traderRef)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Export(ctx, "CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD")); err != nil {
		t.Fatal(err)
	}
	if _, err := tc.Import(ctx, NewImport("CarRentalService", Limit(1<<32+5))); !errors.Is(err, cosm.ErrBadArgs) {
		t.Errorf("import with limit 2^32+5 = %v, want cosm.ErrBadArgs", err)
	}
	if _, err := tc.Export(ctx, "CarRentalService", ref.ServiceRef{Endpoint: "tcp:10.0.0.2:7000"}, carProps("AUDI", 90, "USD")); !errors.Is(err, cosm.ErrBadArgs) {
		t.Errorf("export of an endpoint-only target = %v, want cosm.ErrBadArgs", err)
	}
	if offers, err := tc.Import(ctx, NewImport("CarRentalService")); err != nil || len(offers) != 1 || tr.OfferCount() != 1 {
		t.Fatalf("import after the refusals = %+v, %v", offers, err)
	}
}

func TestRemoteExportImportLifecycle(t *testing.T) {
	node, _, traderRef := startTraderNode(t, "trd-lifecycle", "T1")
	ctx := context.Background()
	tc, err := DialTrader(ctx, node.Pool(), traderRef)
	if err != nil {
		t.Fatal(err)
	}

	target := carRef(1)
	id, err := tc.Export(ctx, "CarRentalService", target, carProps("FIAT_Uno", 80, "USD"))
	if err != nil {
		t.Fatal(err)
	}
	if id == "" {
		t.Fatal("empty offer id")
	}

	offers, err := tc.Import(ctx, ImportRequest{Type: "CarRentalService", Constraint: "CarModel == FIAT_Uno"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Ref != target {
		t.Fatalf("offers = %+v", offers)
	}
	// All property kinds survive the round trip.
	o := offers[0]
	if o.Props["CarModel"] != sidl.EnumLit("FIAT_Uno") {
		t.Fatalf("CarModel = %+v", o.Props["CarModel"])
	}
	if o.Props["ChargePerDay"] != sidl.FloatLit(80) {
		t.Fatalf("ChargePerDay = %+v", o.Props["ChargePerDay"])
	}
	if o.Props["AverageMilage"] != sidl.IntLit(38000) {
		t.Fatalf("AverageMilage = %+v", o.Props["AverageMilage"])
	}

	if err := tc.Replace(ctx, id, carProps("FIAT_Uno", 75, "USD")); err != nil {
		t.Fatal(err)
	}
	one, err := ImportOne(ctx, tc, ImportRequest{Type: "CarRentalService"})
	if err != nil || one.Props["ChargePerDay"] != sidl.FloatLit(75) {
		t.Fatalf("after replace: %+v, %v", one, err)
	}

	if err := tc.Withdraw(ctx, id); err != nil {
		t.Fatal(err)
	}
	if _, err := ImportOne(ctx, tc, ImportRequest{Type: "CarRentalService"}); !errors.Is(err, ErrNoOffer) {
		t.Fatalf("err = %v", err)
	}
	// Remote errors propagate.
	if err := tc.Withdraw(ctx, id); err == nil {
		t.Fatal("double remote withdraw must fail")
	}
}

func TestRemoteExportSIDAndManagement(t *testing.T) {
	node, _, traderRef := startTraderNode(t, "trd-mgmt", "T1")
	ctx := context.Background()
	tc, err := DialTrader(ctx, node.Pool(), traderRef)
	if err != nil {
		t.Fatal(err)
	}

	// The car-rental SID exports itself (its type is predefined).
	sid := sidl.CarRentalSID()
	target := carRef(4)
	if _, err := tc.ExportSID(ctx, sid, target); err != nil {
		t.Fatal(err)
	}
	one, err := ImportOne(ctx, tc, ImportRequest{Type: "CarRentalService"})
	if err != nil || one.Ref != target {
		t.Fatalf("offer = %+v, %v", one, err)
	}

	// Management: define a brand-new type remotely, list, remove.
	bikes := sidl.CarRentalSID()
	bikes.ServiceName = "BikeRentalService"
	bikes.Trader.TypeOfService = "BikeRentalService"
	if err := tc.DefineTypeFromSID(ctx, bikes); err != nil {
		t.Fatal(err)
	}
	names, err := tc.TypeNames(ctx)
	if err != nil || len(names) != 2 {
		t.Fatalf("TypeNames = %v, %v", names, err)
	}
	if err := tc.RemoveType(ctx, "BikeRentalService"); err != nil {
		t.Fatal(err)
	}
	names, _ = tc.TypeNames(ctx)
	if len(names) != 1 {
		t.Fatalf("after remove: %v", names)
	}
	if err := tc.RemoveType(ctx, "Ghost"); err == nil {
		t.Fatal("removing unknown type must fail remotely")
	}
}

func TestFederationOverWire(t *testing.T) {
	// Trader A (local) links trader B (remote, via Client): an import at
	// A with hop budget reaches offers exported only at B — the ODP
	// "trader federation" of section 2.2, over the real wire.
	nodeB, trB, refB := startTraderNode(t, "trd-fed-b", "B")
	_ = trB
	_, trA, _ := startTraderNode(t, "trd-fed-a", "A")

	ctx := context.Background()
	remoteB, err := DialTrader(ctx, nodeB.Pool(), refB)
	if err != nil {
		t.Fatal(err)
	}
	mustLink(t, trA, "b", remoteB)

	target := carRef(8)
	if _, err := remoteB.Export(ctx, "CarRentalService", target, carProps("VW_Golf", 66, "DEM")); err != nil {
		t.Fatal(err)
	}

	offers, err := trA.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Ref != target {
		t.Fatalf("federated offers = %+v", offers)
	}
	// Without hop budget the remote offer is invisible.
	offers, err = trA.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 0})
	if err != nil || len(offers) != 0 {
		t.Fatalf("hop 0 offers = %+v, %v", offers, err)
	}
}

// Link management and summary gossip over the real wire: cosmcli links
// drives exactly this client surface.
func TestLinkManagementOverWire(t *testing.T) {
	nodeB, _, refB := startTraderNode(t, "trd-links-b", "B")
	nodeA, trA, refA := startTraderNode(t, "trd-links-a", "A")
	ctx := context.Background()

	clientA, err := DialTrader(ctx, nodeA.Pool(), refA)
	if err != nil {
		t.Fatal(err)
	}

	// Without a dialer the trader cannot resolve peer refs remotely.
	if err := clientA.LinkAdd(ctx, "b", refB); err == nil {
		t.Fatal("LinkAdd without a link dialer must fail")
	}
	trA.SetLinkDialer(func(ctx context.Context, peer ref.ServiceRef) (Federate, error) {
		return DialTrader(ctx, nodeA.Pool(), peer)
	})
	if err := clientA.LinkAdd(ctx, "b", refB); err != nil {
		t.Fatal(err)
	}
	if err := clientA.LinkAdd(ctx, "b", refB); err == nil {
		t.Fatal("duplicate remote LinkAdd must fail")
	}

	links, err := clientA.LinkList(ctx)
	if err != nil || len(links) != 1 {
		t.Fatalf("LinkList = %+v, %v", links, err)
	}
	if links[0].Name != "b" || links[0].State != wire.BreakerClosed {
		t.Fatalf("link = %+v", links[0])
	}
	if links[0].SummaryAge >= 0 {
		t.Fatalf("summary age = %v, want negative before gossip", links[0].SummaryAge)
	}

	// Gossip over the wire: A's round exchanges summaries with B via the
	// SummaryExchange wire op, and the learned state shows up in LinkList.
	clientB, err := DialTrader(ctx, nodeB.Pool(), refB)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := clientB.Export(ctx, "CarRentalService", carRef(2), carProps("AUDI", 42, "USD")); err != nil {
		t.Fatal(err)
	}
	if pushed, failed := trA.GossipRound(ctx, time.Second); pushed != 1 || failed != 0 {
		t.Fatalf("gossip round: pushed %d failed %d", pushed, failed)
	}
	links, err = clientA.LinkList(ctx)
	if err != nil || len(links) != 1 {
		t.Fatalf("LinkList = %+v, %v", links, err)
	}
	if links[0].PeerID != "B" || links[0].SummaryGen == 0 || links[0].SummaryTypes != 1 || links[0].SummaryAge < 0 {
		t.Fatalf("post-gossip link = %+v", links[0])
	}

	// The scatter knobs survive the wire round trip: a remote import
	// with MaxPeers and Hedge still reaches B's offer.
	offers, err := clientA.Import(ctx, NewImport("CarRentalService",
		Hops(1), MaxPeers(1), Hedge(50*time.Millisecond)))
	if err != nil || len(offers) != 1 || offers[0].Ref != carRef(2) {
		t.Fatalf("remote routed import = %+v, %v", offers, err)
	}

	if err := clientA.LinkRemove(ctx, "b"); err != nil {
		t.Fatal(err)
	}
	if err := clientA.LinkRemove(ctx, "b"); err == nil {
		t.Fatal("removing an unknown link must fail remotely")
	}
	if links, _ := clientA.LinkList(ctx); len(links) != 0 {
		t.Fatalf("links after remove = %+v", links)
	}
}

func TestLitWireCodec(t *testing.T) {
	lits := []sidl.Lit{
		sidl.BoolLit(true),
		sidl.BoolLit(false),
		sidl.IntLit(-5),
		sidl.FloatLit(3.5),
		sidl.StringLit("hello world"),
		sidl.EnumLit("AUDI"),
	}
	for _, l := range lits {
		kind, text := core.EncodeLit(l)
		got, err := core.DecodeLit(kind, text)
		if err != nil {
			t.Fatalf("core.DecodeLit(%q, %q): %v", kind, text, err)
		}
		if got != l {
			t.Fatalf("round trip: %+v vs %+v", got, l)
		}
	}
	for _, bad := range [][2]string{
		{"bool", "maybe"},
		{"int", "x"},
		{"float", "x"},
		{"quaternion", "1"},
	} {
		if _, err := core.DecodeLit(bad[0], bad[1]); err == nil {
			t.Fatalf("core.DecodeLit(%q, %q) should fail", bad[0], bad[1])
		}
	}
}

// TestRemoteWithdrawAllFollowsLeaderHint: a provider's batch
// deregistration sent to a read replica must not silently withdraw
// nothing. The follower refuses it like any other mutation, and a
// client following leader hints lands it on the leader with the right
// count.
func TestRemoteWithdrawAllFollowsLeaderHint(t *testing.T) {
	ctx := context.Background()
	_, leader, leaderRef := startTraderNode(t, "trd-wall-leader", "HA")
	fnode, follower, followerRef := startTraderNode(t, "trd-wall-follower", "HA")
	follower.SetFollower(leaderRef.String())

	var ids []string
	for i := 1; i <= 3; i++ {
		id, err := leader.Export("CarRentalService", carRef(i), carProps("AUDI", float64(100+i), "USD"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	batch := append([]string{"HA/o999"}, ids[:2]...)

	tc, err := DialTrader(ctx, fnode.Pool(), followerRef)
	if err != nil {
		t.Fatal(err)
	}
	if n, err := tc.WithdrawAll(ctx, batch); !isNotLeaderError(err) {
		t.Fatalf("WithdrawAll at a follower = %d, %v; want a not-leader rejection", n, err)
	}
	if leader.OfferCount() != 3 {
		t.Fatalf("rejected batch withdrew offers: %d left", leader.OfferCount())
	}

	tc.FollowLeaderHints(true)
	n, err := tc.WithdrawAll(ctx, batch)
	if err != nil {
		t.Fatalf("redirected WithdrawAll: %v", err)
	}
	if n != 2 || leader.OfferCount() != 1 {
		t.Fatalf("redirected WithdrawAll = %d with %d offers left at the leader, want 2 and 1", n, leader.OfferCount())
	}
}

// TestRemoteWithdrawAllKeepsCountOnSyncTimeout: when the
// sync-replication wait times out the withdrawal is already applied, so
// the count must come back beside the error — a provider's shutdown
// path that saw "0 withdrawn" would retry a batch that is already gone.
func TestRemoteWithdrawAllKeepsCountOnSyncTimeout(t *testing.T) {
	ctx := context.Background()
	leader, lj := newDurableTrader(t, "HA", t.TempDir(), journal.Options{Fsync: journal.FsyncNever})
	defer lj.Close()
	if err := leader.DefineTypeSIDL(sidl.CarRentalIDL); err != nil {
		t.Fatal(err)
	}
	var ids []string
	for i := 1; i <= 3; i++ {
		id, err := leader.Export("CarRentalService", carRef(i), carProps("AUDI", float64(100+i), "USD"))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	// Synchronous replication with no follower: every mutation from here
	// on is applied, then fails its wait.
	WithReplSync(1, 20*time.Millisecond)(leader)

	svc, err := NewService(leader)
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	defer node.Close()
	if err := node.Host(ServiceName, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:trd-wall-sync-timeout"); err != nil {
		t.Fatal(err)
	}
	tc, err := DialTrader(ctx, node.Pool(), node.MustRefFor(ServiceName))
	if err != nil {
		t.Fatal(err)
	}
	n, err := tc.WithdrawAll(ctx, append([]string{"HA/o999"}, ids[:2]...))
	if err == nil || !strings.Contains(err.Error(), "followers acked") {
		t.Fatalf("WithdrawAll without a follower = %d, %v; want a replication timeout", n, err)
	}
	if n != 2 || leader.OfferCount() != 1 {
		t.Fatalf("WithdrawAll = %d beside the timeout with %d offers left, want 2 and 1", n, leader.OfferCount())
	}
}
