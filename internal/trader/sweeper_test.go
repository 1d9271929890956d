package trader

import (
	"context"
	"errors"
	"sync"
	"testing"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
)

// fakePinger is a controllable pingFunc: refs in the dead set fail.
type fakePinger struct {
	mu   sync.Mutex
	dead map[ref.ServiceRef]bool
	hits int
}

func (f *fakePinger) setDead(r ref.ServiceRef, dead bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.dead == nil {
		f.dead = map[ref.ServiceRef]bool{}
	}
	f.dead[r] = dead
}

func (f *fakePinger) ping(_ context.Context, r ref.ServiceRef) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.hits++
	if f.dead[r] {
		return errors.New("unreachable")
	}
	return nil
}

func newSweeperFixture(t *testing.T, opts ...SweeperOption) (*Trader, *fakePinger, *Sweeper) {
	t.Helper()
	tr := New("sweep", newCarRepo(t))
	fp := &fakePinger{}
	opts = append([]SweeperOption{withPingFunc(fp.ping)}, opts...)
	sw := NewSweeper(tr, nil, opts...)
	t.Cleanup(func() { _ = sw.Close() })
	return tr, fp, sw
}

func TestSweeperSuspectsThenWithdraws(t *testing.T) {
	tr, fp, sw := newSweeperFixture(t, WithFailThreshold(2))
	ctx := context.Background()
	if _, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 70, "USD")); err != nil {
		t.Fatal(err)
	}
	idB, err := tr.Export("CarRentalService", carRef(2), carProps("FIAT_Uno", 80, "USD"))
	if err != nil {
		t.Fatal(err)
	}
	fp.setDead(carRef(2), true)

	rep := sw.SweepOnce(ctx)
	if rep.Checked != 2 || rep.Healthy != 1 || rep.Suspected != 1 || rep.Withdrawn != 0 {
		t.Fatalf("sweep 1 report = %+v", rep)
	}
	var suspectFlag bool
	for _, o := range tr.Offers() {
		if o.ID == idB {
			suspectFlag = o.Suspect
		}
	}
	if !suspectFlag {
		t.Fatal("offer of the dead provider is not marked suspect after sweep 1")
	}
	// Suspect offers still match, but rank behind healthy ones even
	// when the ordering policy prefers them.
	offers, err := tr.Import(ctx, ImportRequest{Type: "CarRentalService", Policy: "min:ChargePerDay"})
	if err != nil || len(offers) != 2 {
		t.Fatalf("import = %v, %v", offers, err)
	}
	if offers[0].Suspect || !offers[1].Suspect {
		t.Fatalf("import order = [suspect=%v, suspect=%v], want healthy first", offers[0].Suspect, offers[1].Suspect)
	}

	rep = sw.SweepOnce(ctx)
	if rep.Withdrawn != 1 {
		t.Fatalf("sweep 2 report = %+v, want 1 withdrawal", rep)
	}
	if n := tr.OfferCount(); n != 1 {
		t.Fatalf("offers after withdrawal = %d, want 1", n)
	}
}

func TestSweeperWithdrawsWithinOneSweepAtThresholdOne(t *testing.T) {
	tr, fp, sw := newSweeperFixture(t, WithFailThreshold(1))
	if _, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 70, "USD")); err != nil {
		t.Fatal(err)
	}
	fp.setDead(carRef(1), true)
	rep := sw.SweepOnce(context.Background())
	if rep.Withdrawn != 1 || tr.OfferCount() != 0 {
		t.Fatalf("report = %+v, offers = %d; want immediate withdrawal", rep, tr.OfferCount())
	}
}

// TestSweeperRecovery: a provider that answers again is un-suspected
// and its failure streak resets — one new failure only re-suspects, it
// does not withdraw.
func TestSweeperRecovery(t *testing.T) {
	tr, fp, sw := newSweeperFixture(t, WithFailThreshold(2))
	ctx := context.Background()
	id, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 70, "USD"))
	if err != nil {
		t.Fatal(err)
	}

	fp.setDead(carRef(1), true)
	if rep := sw.SweepOnce(ctx); rep.Suspected != 1 {
		t.Fatalf("sweep 1 = %+v", rep)
	}

	fp.setDead(carRef(1), false)
	if rep := sw.SweepOnce(ctx); rep.Healthy != 1 {
		t.Fatalf("sweep 2 = %+v", rep)
	}
	for _, o := range tr.Offers() {
		if o.ID == id && o.Suspect {
			t.Fatal("recovered offer still marked suspect")
		}
	}

	// The streak restarted: this failure is the first again.
	fp.setDead(carRef(1), true)
	if rep := sw.SweepOnce(ctx); rep.Withdrawn != 0 || rep.Suspected != 1 {
		t.Fatalf("sweep 3 = %+v, want suspect (streak reset), not withdrawal", rep)
	}
	if tr.OfferCount() != 1 {
		t.Fatal("offer withdrawn despite reset failure streak")
	}
}

// TestSweeperBlackholedProviderDoesNotPoisonOthers: one provider that
// never answers (its probe runs into the per-probe timeout) must not
// eat the sweep budget and drag healthy providers into bogus
// suspect/withdraw verdicts.
func TestSweeperBlackholedProviderDoesNotPoisonOthers(t *testing.T) {
	tr := New("sweep-bh", newCarRepo(t))
	blackholed, healthy := carRef(1), carRef(2)
	ping := func(ctx context.Context, r ref.ServiceRef) error {
		if r == blackholed {
			<-ctx.Done() // never answers; only the probe timeout ends this
			return ctx.Err()
		}
		return nil
	}
	sw := NewSweeper(tr, nil, withPingFunc(ping), withProbeTimeout(20*time.Millisecond))
	t.Cleanup(func() { _ = sw.Close() })
	if _, err := tr.Export("CarRentalService", blackholed, carProps("FIAT_Uno", 70, "USD")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Export("CarRentalService", healthy, carProps("FIAT_Uno", 80, "USD")); err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	rep := sw.SweepOnce(ctx)
	if rep.Checked != 2 || rep.Healthy != 1 || rep.Suspected != 1 || rep.Skipped != 0 {
		t.Fatalf("report = %+v; the healthy provider must not share the black hole's fate", rep)
	}
	for _, o := range tr.Offers() {
		if o.Ref == healthy && o.Suspect {
			t.Fatal("healthy provider marked suspect behind a black-holed one")
		}
	}
}

// TestSweeperBudgetExhaustionSkipsInsteadOfFailing: a sweep whose
// budget is already gone probes nothing — and counts nothing as a
// failure. Unprobed offers keep their streak: they neither advance
// toward withdrawal nor lose the failures already observed.
func TestSweeperBudgetExhaustionSkipsInsteadOfFailing(t *testing.T) {
	tr, fp, sw := newSweeperFixture(t, WithFailThreshold(2))
	if _, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 70, "USD")); err != nil {
		t.Fatal(err)
	}
	fp.setDead(carRef(1), true)

	if rep := sw.SweepOnce(context.Background()); rep.Suspected != 1 {
		t.Fatalf("sweep 1 = %+v, want one suspect", rep)
	}

	expired, cancel := context.WithCancel(context.Background())
	cancel()
	rep := sw.SweepOnce(expired)
	if rep.Skipped != 1 || rep.Checked != 0 || rep.Suspected != 0 || rep.Withdrawn != 0 {
		t.Fatalf("budgetless sweep = %+v, want 1 skip and no verdicts", rep)
	}
	if tr.OfferCount() != 1 {
		t.Fatal("budgetless sweep withdrew an offer")
	}

	// The streak survived the skip: the next genuine failure is the
	// second strike and withdraws.
	if rep := sw.SweepOnce(context.Background()); rep.Withdrawn != 1 {
		t.Fatalf("sweep 3 = %+v, want withdrawal (streak preserved across skip)", rep)
	}
}

// TestSweeperProbesOncePerProvider: many offers behind one reference
// share a single probe per sweep.
func TestSweeperProbesOncePerProvider(t *testing.T) {
	tr, fp, sw := newSweeperFixture(t)
	for i := 0; i < 5; i++ {
		if _, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 70+float64(i), "USD")); err != nil {
			t.Fatal(err)
		}
	}
	rep := sw.SweepOnce(context.Background())
	if rep.Checked != 5 {
		t.Fatalf("Checked = %d, want 5", rep.Checked)
	}
	if fp.hits != 1 {
		t.Fatalf("pings = %d, want 1 (one probe per provider)", fp.hits)
	}
}

// TestSweeperReclaimsExpiredLeases: each sweep also purges expired
// leases, under the trader's injected clock.
func TestSweeperReclaimsExpiredLeases(t *testing.T) {
	now := time.Unix(5000, 0)
	var mu sync.Mutex
	clock := func() time.Time { mu.Lock(); defer mu.Unlock(); return now }
	tr := New("sweep-lease", newCarRepo(t), withClock(clock))
	fp := &fakePinger{}
	sw := NewSweeper(tr, nil, withPingFunc(fp.ping))
	defer sw.Close()

	if _, err := tr.ExportLease("CarRentalService", carRef(1), carProps("FIAT_Uno", 70, "USD"), time.Minute); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	now = now.Add(2 * time.Minute)
	mu.Unlock()

	rep := sw.SweepOnce(context.Background())
	if rep.Expired != 1 || rep.Checked != 0 {
		t.Fatalf("report = %+v, want 1 expiry and no probes of expired offers", rep)
	}
	if tr.OfferCount() != 0 {
		t.Fatal("expired offer not reclaimed")
	}
}

// TestSweeperIdleOnFollower: a follower's sweep probes nobody and
// passes no verdict — marking, withdrawing and expiring are mutations,
// the leader's to make — and resumes once the trader leads.
func TestSweeperIdleOnFollower(t *testing.T) {
	tr, fp, sw := newSweeperFixture(t, WithFailThreshold(1))
	if _, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 70, "USD")); err != nil {
		t.Fatal(err)
	}
	fp.setDead(carRef(1), true)
	tr.SetFollower("cosm://leader")
	if rep := sw.SweepOnce(context.Background()); rep != (SweepReport{}) {
		t.Fatalf("follower sweep reported %+v, want nothing", rep)
	}
	if fp.hits != 0 {
		t.Fatalf("follower sweep sent %d probes, want 0", fp.hits)
	}
	if tr.OfferCount() != 1 {
		t.Fatal("follower sweep touched the store")
	}
	if err := tr.Promote(1); err != nil {
		t.Fatal(err)
	}
	if rep := sw.SweepOnce(context.Background()); rep.Withdrawn != 1 || fp.hits != 1 {
		t.Fatalf("leader sweep = %+v after %d probes, want the dead offer withdrawn by one", rep, fp.hits)
	}
}

// TestSweeperBackgroundLoop drives the background goroutine through an
// injected tick channel — the fake-clock pattern for the sweep timer.
func TestSweeperBackgroundLoop(t *testing.T) {
	tr := New("sweep-bg", newCarRepo(t))
	if _, err := tr.Export("CarRentalService", carRef(1), carProps("FIAT_Uno", 70, "USD")); err != nil {
		t.Fatal(err)
	}
	swept := make(chan ref.ServiceRef, 4)
	tick := make(chan time.Time)
	sw := NewSweeper(tr, nil,
		WithFailThreshold(1),
		withSweepTick(tick),
		withPingFunc(func(_ context.Context, r ref.ServiceRef) error {
			swept <- r
			return errors.New("unreachable")
		}))
	sw.Start()
	defer sw.Close()

	tick <- time.Unix(6000, 0)
	select {
	case r := <-swept:
		if r != carRef(1) {
			t.Fatalf("probed %v, want %v", r, carRef(1))
		}
	case <-time.After(5 * time.Second):
		t.Fatal("tick did not trigger a sweep")
	}
	if err := sw.Close(); err != nil { // waits for the sweep to finish
		t.Fatal(err)
	}
	if tr.OfferCount() != 0 {
		t.Fatal("background sweep did not withdraw the dead offer")
	}
}

// startCarService hosts a minimal describable car rental service on a
// loopback endpoint and returns its reference.
func startCarService(t *testing.T, endpoint, name string) (*cosm.Node, ref.ServiceRef) {
	t.Helper()
	svc, err := cosm.NewService(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host(name, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe(endpoint); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })
	return node, node.MustRefFor(name)
}

// fastPool returns a pool that fails dead endpoints quickly, so
// failover tests don't sit out retry backoffs.
func fastPool(t *testing.T) *wire.Pool {
	t.Helper()
	p := wire.NewPool(wire.WithCallPolicy(wire.CallPolicy{MaxAttempts: 1, AttemptTimeout: 2 * time.Second}))
	t.Cleanup(func() { _ = p.Close() })
	return p
}

func TestBindFirstLiveSkipsDeadProviders(t *testing.T) {
	ctx := context.Background()
	_, live := startCarService(t, "loop:bfl-live", "LiveCars")
	pool := fastPool(t)

	dead := ref.New("loop:bfl-nobody", "DeadCars")
	offers := []*Offer{
		{ID: "o-dead", Ref: dead},
		{ID: "o-live", Ref: live},
	}
	conn, chosen, err := BindFirstLive(ctx, pool, offers)
	if err != nil {
		t.Fatal(err)
	}
	if chosen.ID != "o-live" || conn.Ref() != live {
		t.Fatalf("bound %v via offer %s, want the live provider", conn.Ref(), chosen.ID)
	}
}

func TestBindFirstLiveAllDead(t *testing.T) {
	pool := fastPool(t)
	offers := []*Offer{
		{ID: "a", Ref: ref.New("loop:bfl-gone-1", "X")},
		{ID: "b", Ref: ref.New("loop:bfl-gone-2", "X")},
	}
	_, _, err := BindFirstLive(context.Background(), pool, offers)
	if !errors.Is(err, ErrNoLiveOffer) {
		t.Fatalf("err = %v, want ErrNoLiveOffer", err)
	}
	if _, _, err := BindFirstLive(context.Background(), pool, nil); !errors.Is(err, ErrNoLiveOffer) {
		t.Fatalf("empty offers err = %v, want ErrNoLiveOffer", err)
	}
}

// TestImportBindFailsOver is the trader-level acceptance path: the
// preferred (cheapest) offer's provider is dead, so ImportBind binds
// the next-best offer instead — no manual workaround by the client.
func TestImportBindFailsOver(t *testing.T) {
	ctx := context.Background()
	tr := New("failover", newCarRepo(t))
	pool := fastPool(t)

	deadNode, deadRef := startCarService(t, "loop:ib-cheap", "CheapCars")
	_, liveRef := startCarService(t, "loop:ib-solid", "SolidCars")
	if _, err := tr.Export("CarRentalService", deadRef, carProps("FIAT_Uno", 60, "USD")); err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Export("CarRentalService", liveRef, carProps("FIAT_Uno", 90, "USD")); err != nil {
		t.Fatal(err)
	}
	_ = deadNode.Close() // the cheapest provider crashes

	conn, offer, err := ImportBind(ctx, tr, pool, ImportRequest{
		Type:   "CarRentalService",
		Policy: "min:ChargePerDay",
	})
	if err != nil {
		t.Fatal(err)
	}
	if offer.Ref != liveRef || conn.Ref() != liveRef {
		t.Fatalf("bound %v, want failover to %v", conn.Ref(), liveRef)
	}
}

// TestImportBindNoMatch propagates the import result when nothing
// matches at all.
func TestImportBindNoMatch(t *testing.T) {
	tr := New("failover-none", newCarRepo(t))
	pool := fastPool(t)
	_, _, err := ImportBind(context.Background(), tr, pool, ImportRequest{
		Type:       "CarRentalService",
		Constraint: "ChargePerDay < 1",
	})
	if !errors.Is(err, ErrNoLiveOffer) {
		t.Fatalf("err = %v, want ErrNoLiveOffer for an empty match", err)
	}
}
