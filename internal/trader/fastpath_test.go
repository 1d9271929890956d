package trader

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
)

// --- randomized equivalence: indexed snapshots vs. linear scan -------

var (
	fpModels     = []string{"FIAT_Uno", "AUDI", "VW_Golf"}
	fpCurrencies = []string{"USD", "DEM", "FF", "SFR"}
	fpDepots     = []string{"HH", "M", "B", ""}
)

func fpOfferProps(r *rand.Rand) []sidl.Property {
	props := []sidl.Property{
		{Name: "CarModel", Value: sidl.EnumLit(fpModels[r.Intn(len(fpModels))])},
		{Name: "AverageMilage", Value: sidl.IntLit(int64(10000 + r.Intn(60000)))},
		{Name: "ChargePerDay", Value: sidl.FloatLit(float64(10 + r.Intn(190)))},
		{Name: "ChargeCurrency", Value: sidl.EnumLit(fpCurrencies[r.Intn(len(fpCurrencies))])},
	}
	// Extra, undeclared properties are permitted and exercise the
	// equality/bool indexes.
	if r.Intn(2) == 0 {
		props = append(props, sidl.Property{Name: "Premium", Value: sidl.BoolLit(r.Intn(2) == 0)})
	}
	if r.Intn(2) == 0 {
		props = append(props, sidl.Property{Name: "Depot", Value: sidl.StringLit(fpDepots[r.Intn(len(fpDepots))])})
	}
	// Occasionally a property whose *name* is an enum symbol used by
	// constraints ("CarModel == FIAT_Uno"): the index planner must then
	// refuse the posting-list shortcut, because the identifier no longer
	// uniformly resolves to a symbol.
	if r.Intn(8) == 0 {
		props = append(props, sidl.Property{Name: "FIAT_Uno", Value: sidl.EnumLit(fpModels[r.Intn(len(fpModels))])})
	}
	return props
}

func fpCmp(r *rand.Rand) string {
	return []string{"==", "!=", "<", "<=", ">", ">="}[r.Intn(6)]
}

func fpLeaf(r *rand.Rand) string {
	switch r.Intn(8) {
	case 0:
		return fmt.Sprintf("ChargePerDay %s %d", fpCmp(r), 10+r.Intn(190))
	case 1:
		return fmt.Sprintf("AverageMilage %s %d", fpCmp(r), 10000+r.Intn(60000))
	case 2:
		return "CarModel == " + fpModels[r.Intn(len(fpModels))]
	case 3:
		return "ChargeCurrency != " + fpCurrencies[r.Intn(len(fpCurrencies))]
	case 4:
		return "Premium"
	case 5:
		return fmt.Sprintf("Depot == %q", fpDepots[r.Intn(len(fpDepots))])
	case 6:
		return fmt.Sprintf("%d < ChargePerDay", 10+r.Intn(190))
	default:
		return "CarModel == FIAT_Uno"
	}
}

func fpExpr(r *rand.Rand, depth int) string {
	if depth == 0 || r.Intn(3) == 0 {
		return fpLeaf(r)
	}
	switch r.Intn(3) {
	case 0:
		return "(" + fpExpr(r, depth-1) + ") && (" + fpExpr(r, depth-1) + ")"
	case 1:
		return "(" + fpExpr(r, depth-1) + ") || (" + fpExpr(r, depth-1) + ")"
	default:
		return "!(" + fpExpr(r, depth-1) + ")"
	}
}

// TestIndexedMatchesLinearProperty drives an indexed core.State and a
// linear-scan one through identical randomized export/withdraw/
// withdraw_all/replace/suspect/purge/lease histories — no Trader, no
// clock: mutations are applied directly and every import names its
// instant — and asserts every import returns exactly the same offers in
// the same order. The indexed side reads before every round's writes,
// so they derive its snapshots; a bounded Max takes its top-k heap, the
// linear side the full sort. Some constraints ask a numeric property
// for equality with a stored value, written as an int and as a float,
// which the indexed side answers from the range index.
func TestIndexedMatchesLinearProperty(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	clock := time.Unix(1_000_000, 0)

	caches := core.Options{ConstraintCacheSize: defaultConstraintCacheSize}
	indexed := core.New(newCarRepo(t), caches)
	caches.Linear = true
	linear := core.New(newCarRepo(t), caches)
	states := []*core.State{indexed, linear}
	apply := func(m *core.Mutation) {
		for _, st := range states {
			st.Apply(m)
		}
	}

	var ids []string
	var milages []int64 // AverageMilage of every offer exported, for equality leaves
	newOffer := func() *Offer {
		o := &Offer{
			ID:    fmt.Sprintf("T/o%d", len(ids)+1),
			Type:  "CarRentalService",
			Ref:   ref.New(fmt.Sprintf("tcp:10.1.%d.%d:7000", len(ids)/250, len(ids)%250), "CarRentalService"),
			Props: propMap(fpOfferProps(r)),
		}
		if r.Intn(4) == 0 {
			o.Expires = clock.Add(time.Duration(1+r.Intn(120)) * time.Second)
		}
		ids = append(ids, o.ID)
		milages = append(milages, o.Props["AverageMilage"].Int)
		return o
	}
	export := func(n int) {
		m := &core.Mutation{Op: core.OpExport}
		for i := 0; i < n; i++ {
			m.Offers = append(m.Offers, newOffer())
		}
		apply(m)
	}
	constraint := func() string {
		n := milages[r.Intn(len(milages))]
		switch r.Intn(6) {
		case 0:
			return fmt.Sprintf("AverageMilage == %d", n)
		case 1:
			return fmt.Sprintf("AverageMilage == %d.0 && (%s)", n, fpExpr(r, 1))
		}
		return fpExpr(r, 2)
	}

	policies := []string{"", "first", "min:ChargePerDay", "max:AverageMilage", "score"}
	check := func(round int) {
		for k := 0; k < 8; k++ {
			req := ImportRequest{
				Type:       "CarRentalService",
				Constraint: constraint(),
				Policy:     policies[r.Intn(len(policies))],
				Max:        r.Intn(5), // 0 = all
			}
			qa, errA := indexed.Prepare(req.Type, req.Constraint, req.Policy, req.Max, req.MinGrade)
			qb, errB := linear.Prepare(req.Type, req.Constraint, req.Policy, req.Max, req.MinGrade)
			if (errA == nil) != (errB == nil) {
				t.Fatalf("round %d %+v: errs %v vs %v", round, req, errA, errB)
			}
			if errA != nil {
				continue
			}
			a, b := indexed.Import(qa, nil, clock), linear.Import(qb, nil, clock)
			if len(a) != len(b) {
				t.Fatalf("round %d constraint %q: indexed %d offers, linear %d", round, req.Constraint, len(a), len(b))
			}
			for i := range a {
				if a[i].ID != b[i].ID || a[i].Suspect != b[i].Suspect {
					t.Fatalf("round %d constraint %q offer %d: indexed %+v, linear %+v", round, req.Constraint, i, a[i].Offer, b[i].Offer)
				}
			}
		}
	}

	for round := 0; round < 30; round++ {
		for i := 0; i < 10; i++ {
			export(1)
		}
		export(2 + r.Intn(5)) // one multi-offer batch
		// Mutate identically on both sides.
		if r.Intn(2) == 0 {
			apply(&core.Mutation{Op: core.OpWithdraw, IDs: []string{ids[r.Intn(len(ids))]}})
		}
		if r.Intn(3) == 0 {
			apply(&core.Mutation{Op: core.OpWithdrawAll, IDs: []string{ids[r.Intn(len(ids))], ids[r.Intn(len(ids))], "T/o0"}})
		}
		apply(&core.Mutation{Op: core.OpReplace, IDs: []string{ids[r.Intn(len(ids))]}, Props: propMap(fpOfferProps(r))})
		apply(&core.Mutation{Op: core.OpSuspect, IDs: []string{ids[r.Intn(len(ids))]}, Suspect: r.Intn(2) == 0})
		clock = clock.Add(time.Duration(r.Intn(30)) * time.Second) // expire some leases
		if r.Intn(3) == 0 {
			apply(&core.Mutation{Op: core.OpPurge, At: clock})
		}
		check(round)
	}
	if indexed.Count(clock) != linear.Count(clock) {
		t.Fatalf("offer counts diverged: %d vs %d", indexed.Count(clock), linear.Count(clock))
	}
}

// TestIndexGuardPropertyNamedLikeSymbol pins the planner subtlety the
// property test probes statistically: when some offer carries a
// property literally named "FIAT_Uno", the identifier in
// "CarModel == FIAT_Uno" no longer uniformly denotes an enum symbol,
// so the posting-list shortcut must be refused for that snapshot.
func TestIndexGuardPropertyNamedLikeSymbol(t *testing.T) {
	ctx := context.Background()
	tr := New("T", newCarRepo(t))

	// Offer 1: CarModel=AUDI plus a property named FIAT_Uno with value
	// AUDI; "CarModel == FIAT_Uno" evaluates prop-vs-prop and matches.
	props := append(carProps("AUDI", 100, "USD"),
		sidl.Property{Name: "FIAT_Uno", Value: sidl.EnumLit("AUDI")})
	if _, err := tr.Export("CarRentalService", carRef(1), props); err != nil {
		t.Fatal(err)
	}
	// Offer 2: a plain FIAT_Uno; matches via symbol comparison.
	if _, err := tr.Export("CarRentalService", carRef(2), carProps("FIAT_Uno", 80, "USD")); err != nil {
		t.Fatal(err)
	}
	// Offer 3: a plain VW_Golf; matches nothing.
	if _, err := tr.Export("CarRentalService", carRef(3), carProps("VW_Golf", 90, "USD")); err != nil {
		t.Fatal(err)
	}

	offers, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService", Constraint: "CarModel == FIAT_Uno"})
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("want offers 1 and 2, got %+v", offers)
	}
}

// --- every import sees the store as it is ---------------------------

// TestImportSeesEveryWrite: an import after each kind of write sees it,
// in policy order with suspects last.
func TestImportSeesEveryWrite(t *testing.T) {
	ctx := context.Background()
	tr := New("T", newCarRepo(t))

	id1, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD"))
	if err != nil {
		t.Fatal(err)
	}

	req := ImportRequest{Type: "CarRentalService", Policy: "min:ChargePerDay"}
	mustImport := func(wantN int) []*Offer {
		t.Helper()
		offers, err := tr.Import(ctx, req)
		if err != nil {
			t.Fatal(err)
		}
		if len(offers) != wantN {
			t.Fatalf("got %d offers, want %d", len(offers), wantN)
		}
		return offers
	}

	mustImport(1)

	// Export: the new offer appears immediately.
	if _, err := tr.Export("CarRentalService", carRef(2), carProps("AUDI", 60, "USD")); err != nil {
		t.Fatal(err)
	}
	if offers := mustImport(2); offers[0].Props["CarModel"] != sidl.EnumLit("AUDI") {
		t.Fatalf("policy order lost after an export: %+v", offers)
	}

	// Replace: new properties visible immediately.
	if err := tr.Replace(id1, carProps("FIAT_Uno", 40, "USD")); err != nil {
		t.Fatal(err)
	}
	if offers := mustImport(2); offers[0].Props["ChargePerDay"] != sidl.FloatLit(40) {
		t.Fatalf("replace not visible: %+v", offers[0].Props)
	}

	// MarkSuspect: the suspect offer drops to the back.
	if err := tr.MarkSuspect(id1, true); err != nil {
		t.Fatal(err)
	}
	if offers := mustImport(2); !offers[1].Suspect {
		t.Fatalf("suspect partition lost: %+v", offers)
	}

	// Withdraw.
	if err := tr.Withdraw(id1); err != nil {
		t.Fatal(err)
	}
	mustImport(1)
}

// TestImportRespectsLeaseExpiry: with no write in between, an import
// after an offer's lease ran out no longer returns it.
func TestImportRespectsLeaseExpiry(t *testing.T) {
	ctx := context.Background()
	clock := time.Unix(1_000_000, 0)
	tr := New("T", newCarRepo(t), withClock(func() time.Time { return clock }))

	if _, err := tr.ExportLease("CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD"), 10*time.Second); err != nil {
		t.Fatal(err)
	}
	req := ImportRequest{Type: "CarRentalService"}
	if offers, err := tr.Import(ctx, req); err != nil || len(offers) != 1 {
		t.Fatalf("offers = %v, %v", offers, err)
	}
	clock = clock.Add(11 * time.Second)
	if offers, err := tr.Import(ctx, req); err != nil || len(offers) != 0 {
		t.Fatalf("expired offer served: %v, %v", offers, err)
	}
}

// --- constraint cache bound --------------------------------------------

func TestConstraintCacheBounded(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	tr := New("T", newCarRepo(t), WithConstraintCacheSize(4), WithMetrics(reg))
	if _, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 80, "USD")); err != nil {
		t.Fatal(err)
	}

	// A hostile importer sends a fresh constraint per request; the LRU
	// must stay at its bound instead of growing with every string.
	for i := 0; i < 100; i++ {
		req := ImportRequest{Type: "CarRentalService", Constraint: fmt.Sprintf("ChargePerDay < %d", 1000+i)}
		if _, err := tr.Import(ctx, req); err != nil {
			t.Fatal(err)
		}
	}

	// Repeats hit.
	snap := reg.CounterVec("cosm_trader_constraint_cache_total", "", "outcome").Snapshot()
	if snap["miss"] != 100 {
		t.Fatalf("miss = %d, want 100", snap["miss"])
	}
	req := ImportRequest{Type: "CarRentalService", Constraint: "ChargePerDay < 1099"}
	if _, err := tr.Import(ctx, req); err != nil {
		t.Fatal(err)
	}
	snap = reg.CounterVec("cosm_trader_constraint_cache_total", "", "outcome").Snapshot()
	if snap["hit"] != 1 {
		t.Fatalf("hit = %d, want 1 (snapshot %v)", snap["hit"], snap)
	}
	// Anything older than the last four was evicted: it compiles afresh.
	req.Constraint = "ChargePerDay < 1095"
	if _, err := tr.Import(ctx, req); err != nil {
		t.Fatal(err)
	}
	snap = reg.CounterVec("cosm_trader_constraint_cache_total", "", "outcome").Snapshot()
	if snap["hit"] != 1 || snap["miss"] != 101 {
		t.Fatalf("evicted constraint: hit = %d, miss = %d, want 1 and 101", snap["hit"], snap["miss"])
	}
}

// --- concurrent export/import/withdraw on one bucket ------------------

// TestShardConcurrency hammers a single service type (one bucket of the
// one-lock store; the name is from when the store had 16 shards) with
// concurrent exporters, importers, withdrawers and mutators. Run under -race it proves the snapshot/COW discipline; the
// final drain proves no offer is leaked or double-freed.
func TestShardConcurrency(t *testing.T) {
	ctx := context.Background()
	tr := New("T", newCarRepo(t))

	const exporters = 4
	const perExporter = 50
	idCh := make(chan string, exporters*perExporter)
	var wg sync.WaitGroup

	for e := 0; e < exporters; e++ {
		wg.Add(1)
		go func(e int) {
			defer wg.Done()
			for i := 0; i < perExporter; i++ {
				target := ref.New(fmt.Sprintf("tcp:10.2.%d.%d:7000", e, i), "CarRentalService")
				id, err := tr.Export("CarRentalService", target, carProps("FIAT_Uno", float64(40+i%100), "USD"))
				if err != nil {
					t.Error(err)
					return
				}
				idCh <- id
			}
		}(e)
	}

	// Withdraw half of what gets exported, concurrently.
	withdrawn := make(chan int, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		n := 0
		for i := 0; i < exporters*perExporter/2; i++ {
			id := <-idCh
			if err := tr.Withdraw(id); err == nil {
				n++
			}
		}
		withdrawn <- n
	}()

	// Importers loop over reads while the store churns.
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService", Constraint: "ChargePerDay < 90", Policy: "min:ChargePerDay"}); err != nil {
					t.Error(err)
					return
				}
				_ = tr.OfferCount()
			}
		}()
	}

	// Mutators flip suspect flags and replace properties on live offers.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			for _, o := range tr.core.Live(tr.now()) {
				if i%2 == 0 {
					_ = tr.MarkSuspect(o.ID, true)
				} else {
					_ = tr.Replace(o.ID, carProps("AUDI", 99, "DEM"))
				}
				break
			}
		}
	}()

	// The withdrawer finishing implies the exporters are done (it
	// consumed half their IDs and they only block on the buffered
	// channel); stop the reader loops then wait everyone out.
	gotWithdrawn := <-withdrawn
	close(stop)
	wg.Wait()

	want := exporters*perExporter - gotWithdrawn
	if got := tr.OfferCount(); got != want {
		t.Fatalf("OfferCount = %d, want %d", got, want)
	}
	// Drain everything that remains; the store must end empty.
	var rest []string
	for _, o := range tr.Offers() {
		rest = append(rest, o.ID)
	}
	if n, err := tr.WithdrawAll(rest); n != want || err != nil {
		t.Fatalf("WithdrawAll = %d, want %d", n, want)
	}
	if tr.OfferCount() != 0 {
		t.Fatalf("store not empty: %d", tr.OfferCount())
	}
}

// --- batch operations --------------------------------------------------

func TestExportAllAtomicValidation(t *testing.T) {
	tr := New("T", newCarRepo(t))
	items := []ExportItem{
		{Type: "CarRentalService", Ref: carRef(1), Props: carProps("FIAT_Uno", 80, "USD")},
		{Type: "NoSuchService", Ref: carRef(2), Props: carProps("AUDI", 90, "USD")},
	}
	if _, err := tr.ExportAll(items); err == nil {
		t.Fatal("batch with unknown type must fail")
	}
	if tr.OfferCount() != 0 {
		t.Fatalf("failed batch registered offers: %d", tr.OfferCount())
	}

	items[1].Type = "CarRentalService"
	ids, err := tr.ExportAll(items)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 2 || tr.OfferCount() != 2 {
		t.Fatalf("ids = %v, count = %d", ids, tr.OfferCount())
	}
	if n, err := tr.WithdrawAll(append(ids, "T/o999")); n != 2 || err != nil {
		t.Fatalf("WithdrawAll = %d, want 2 (unknown IDs skipped)", n)
	}
	if n, err := tr.WithdrawAll(ids); n != 0 || err != nil {
		t.Fatalf("second WithdrawAll = %d, want 0", n)
	}
}

func TestRemoteBatchExportWithdraw(t *testing.T) {
	node, _, traderRef := startTraderNode(t, "trd-batch", "TB")
	ctx := context.Background()
	tc, err := DialTrader(ctx, node.Pool(), traderRef)
	if err != nil {
		t.Fatal(err)
	}

	items := []ExportItem{
		{Type: "CarRentalService", Ref: carRef(1), Props: carProps("FIAT_Uno", 80, "USD")},
		{Type: "CarRentalService", Ref: carRef(2), Props: carProps("AUDI", 120, "DEM"), TTL: time.Hour},
		{Type: "CarRentalService", Ref: carRef(3), Props: carProps("VW_Golf", 100, "USD")},
	}
	ids, err := tc.ExportAll(ctx, items)
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("ids = %v", ids)
	}

	offers, err := tc.Import(ctx, NewImport("CarRentalService", trader0OrderByCharge()...))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 3 || offers[0].Props["CarModel"] != sidl.EnumLit("FIAT_Uno") {
		t.Fatalf("offers = %+v", offers)
	}

	n, err := tc.WithdrawAll(ctx, append([]string{"TB/o999"}, ids[:2]...))
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("WithdrawAll = %d, want 2", n)
	}
	left, err := tc.Import(ctx, NewImport("CarRentalService"))
	if err != nil || len(left) != 1 {
		t.Fatalf("left = %+v, %v", left, err)
	}
}

// trader0OrderByCharge keeps the wire test honest about using the
// options API end to end.
func trader0OrderByCharge() []ImportOption {
	return []ImportOption{Where("ChargePerDay > 0"), OrderBy("min:ChargePerDay")}
}
