package bench

// Failure-injection tests: the open market must degrade gracefully when
// providers disappear, when clients misbehave on the wire, and when
// descriptions drift — the realistic open-system conditions the paper
// argues COSM must survive.

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/journal"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// TestFailureProviderCrashMidSession kills a provider between SelectCar
// and Commit: the binding fails cleanly, and the client recovers by
// importing an alternative offer and completing the booking there.
func TestFailureProviderCrashMidSession(t *testing.T) {
	ctx := context.Background()
	in := startInfra(t, "fail-crash")

	// Two competing providers; we will crash the cheaper one.
	cheap := startProvider(t, in, "CheapCars", carrental.Tariff{"FIAT_Uno": 70})
	_ = startProvider(t, in, "SolidCars", carrental.Tariff{"FIAT_Uno": 80})

	offer, err := trader.ImportOne(ctx, in.trd, trader.NewImport("CarRentalService",
		trader.OrderBy("min:ChargePerDay")))
	if err != nil || offer.Ref != cheap {
		t.Fatalf("offer = %+v, %v", offer, err)
	}

	gc := genclient.New(wire.NewPool())
	binding, err := gc.Bind(ctx, offer.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "FIAT_Uno",
		"SelectCar.selection.days":  "1",
	}); err != nil {
		t.Fatal(err)
	}

	// Crash the provider node (we reach it through the infra test
	// helper's cleanup ordering, so crash by closing its node: the
	// provider's ref endpoint identifies the node to kill).
	crashProviderNode(t, cheap.Endpoint)

	_, err = binding.Invoke(ctx, "Commit")
	if err == nil {
		t.Fatal("Commit against a crashed provider must fail")
	}
	// Three clean failure classes: the pooled connection noticed the
	// crash (closed), the node answered before dying (remote), or the
	// binding's re-dial raced the dead listener (refused).
	if !errors.Is(err, wire.ErrClientClosed) && !errors.Is(err, wire.ErrRemote) && !errors.Is(err, syscall.ECONNREFUSED) {
		t.Fatalf("unexpected failure class: %v", err)
	}

	// Recovery: import again excluding the dead provider by constraint
	// (the trader still lists the stale offer — 1994 traders have no
	// liveness monitoring; the client works around it).
	offers, err := in.trd.Import(ctx, trader.NewImport("CarRentalService",
		trader.OrderBy("min:ChargePerDay")))
	if err != nil {
		t.Fatal(err)
	}
	var recovered bool
	for _, alt := range offers {
		if alt.Ref == cheap {
			continue // the stale offer
		}
		b2, err := gc.Bind(ctx, alt.Ref)
		if err != nil {
			continue
		}
		if _, err := b2.InvokeForm(ctx, "SelectCar", map[string]string{
			"SelectCar.selection.model": "FIAT_Uno",
			"SelectCar.selection.days":  "1",
		}); err != nil {
			continue
		}
		res, err := b2.Invoke(ctx, "Commit")
		if err != nil {
			continue
		}
		if conf, _ := res.Value.Field("confirmation"); strings.Contains(conf.Str, "FIAT_Uno") {
			recovered = true
			break
		}
	}
	if !recovered {
		t.Fatal("client failed to recover via an alternative offer")
	}
}

// TestFailureResilientImportBind is the resilient counterpart of
// TestFailureProviderCrashMidSession: with the failover binding path
// there is no manual workaround. The cheapest provider is crashed, yet
// a single ImportBind call books successfully against the next-best
// offer, and the trader's sweeper first suspects and then withdraws
// the dead offer — within one sweep each, no real time elapsing.
func TestFailureResilientImportBind(t *testing.T) {
	ctx := context.Background()
	in := startInfra(t, "fail-resilient")

	cheap := startProvider(t, in, "CheapestCars", carrental.Tariff{"FIAT_Uno": 60})
	solid := startProvider(t, in, "SturdyCars", carrental.Tariff{"FIAT_Uno": 75})
	crashProviderNode(t, cheap.Endpoint)

	// One call: import (cheapest first), fail over past the dead
	// provider, bind the live one. Fast-fail policy: one attempt is
	// enough to prove the endpoint dead (connection refused).
	pool := wire.NewPool(wire.WithCallPolicy(wire.CallPolicy{
		MaxAttempts: 1, AttemptTimeout: 5 * time.Second,
	}))
	defer pool.Close()
	conn, offer, err := trader.ImportBind(ctx, in.trd, pool, trader.NewImport("CarRentalService",
		trader.OrderBy("min:ChargePerDay")))
	if err != nil {
		t.Fatal(err)
	}
	if offer.Ref != solid {
		t.Fatalf("failover bound %v, want %v", offer.Ref, solid)
	}

	// The booking completes through the generic client on the adopted
	// binding, FSM interception included.
	gc := genclient.New(pool)
	binding := gc.Adopt(conn)
	if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "FIAT_Uno",
		"SelectCar.selection.days":  "2",
	}); err != nil {
		t.Fatal(err)
	}
	res, err := binding.Invoke(ctx, "Commit")
	if err != nil {
		t.Fatal(err)
	}
	if conf, _ := res.Value.Field("confirmation"); !strings.Contains(conf.Str, "FIAT_Uno-2d") {
		t.Fatalf("confirmation = %v", conf)
	}

	// The sweeper runs on the trader side over its own pool. Sweep 1
	// suspects the dead offer, sweep 2 withdraws it: deterministic,
	// driven synchronously — no sweep interval needs to elapse. The
	// default fail threshold is 2.
	sweeper := trader.NewSweeper(in.trader, in.node.Pool())
	defer sweeper.Close()
	if rep := sweeper.SweepOnce(ctx); rep != (trader.SweepReport{Checked: 2, Healthy: 1, Suspected: 1}) {
		t.Fatalf("sweep 1 = %+v, want the dead offer suspected", rep)
	}
	if rep := sweeper.SweepOnce(ctx); rep != (trader.SweepReport{Checked: 2, Healthy: 1, Withdrawn: 1}) {
		t.Fatalf("sweep 2 = %+v, want the dead offer withdrawn", rep)
	}
	offers, err := in.trd.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil || len(offers) != 1 || offers[0].Ref != solid {
		t.Fatalf("post-sweep offers = %v, %v; want only the live provider", offers, err)
	}
}

// TestFailureGracefulDrainFailsOver is the graceful counterpart of the
// crash tests: a provider retires by deregistering (offer and browser
// entry withdrawn) and then draining. During the drain, the in-flight
// call completes, new requests to the draining node are shed with
// StatusOverloaded, and new bookings fail over to the remaining
// provider through a plain ImportBind — no sweeps, no stale offers.
func TestFailureGracefulDrainFailsOver(t *testing.T) {
	ctx := context.Background()
	in := startInfra(t, "fail-drain")

	// Provider A (the retiree, cheapest) hosts the published car rental
	// plus a Slow service carrying the in-flight call across the drain.
	nodeA := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	defer nodeA.Close()
	svcA, implA, err := carrental.New(carrental.WithTariff(carrental.Tariff{"FIAT_Uno": 65}))
	if err != nil {
		t.Fatal(err)
	}
	if err := nodeA.Host("DrainCars", svcA); err != nil {
		t.Fatal(err)
	}
	slowSID, err := sidl.Parse(`
module SlowOp {
    interface COSM_Operations {
        void Slow();
    };
};
`)
	if err != nil {
		t.Fatal(err)
	}
	slowSvc, err := cosm.NewService(slowSID)
	if err != nil {
		t.Fatal(err)
	}
	started := make(chan struct{}, 1)
	release := make(chan struct{})
	// A failing check still releases the in-flight call, or nodeA's
	// deferred Close would wait for it until the test binary times out.
	var releaseOnce sync.Once
	free := func() { releaseOnce.Do(func() { close(release) }) }
	defer free()
	slowSvc.MustHandle("Slow", func(*cosm.Call) error {
		started <- struct{}{}
		<-release
		return nil
	})
	if err := nodeA.Host("SlowOp", slowSvc); err != nil {
		t.Fatal(err)
	}
	if _, err := nodeA.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	sidA := implA.SID().Clone()
	sidA.ServiceName = "DrainCars"
	for i, p := range sidA.Trader.Properties {
		if p.Name == "ChargePerDay" {
			sidA.Trader.Properties[i].Value = sidl.FloatLit(65)
		}
	}
	refA := nodeA.MustRefFor("DrainCars")
	pubA, err := carrental.Publish(ctx, sidA, refA, in.brw, in.trd)
	if err != nil {
		t.Fatal(err)
	}

	refB := startProvider(t, in, "StayCars", carrental.Tariff{"FIAT_Uno": 90})

	// Before the drain, A is the best offer.
	offer, err := trader.ImportOne(ctx, in.trd, trader.NewImport("CarRentalService",
		trader.OrderBy("min:ChargePerDay")))
	if err != nil || offer.Ref != refA {
		t.Fatalf("offer = %+v, %v; want %v", offer, err, refA)
	}

	pool := wire.NewPool()
	defer pool.Close()

	// Put one call in flight on A, confirmed to have entered the handler.
	connS, err := cosm.Bind(ctx, pool, nodeA.MustRefFor("SlowOp"))
	if err != nil {
		t.Fatal(err)
	}
	slowDone := make(chan error, 1)
	go func() {
		_, err := connS.Invoke(ctx, "Slow")
		slowDone <- err
	}()
	<-started

	// Retire A: deregister, then drain. The drain blocks on the Slow
	// call, so the node stays in the draining state until we release it.
	drained := make(chan error, 1)
	go func() {
		dctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		if err := pubA.Unpublish(dctx); err != nil {
			drained <- err
			return
		}
		drained <- nodeA.Shutdown(dctx)
	}()

	// Deregistration is visible to importers: poll until A's offer is
	// gone from the trader.
	deadline := time.Now().Add(5 * time.Second)
	for {
		offers, err := in.trd.Import(ctx, trader.NewImport("CarRentalService"))
		if err != nil {
			t.Fatal(err)
		}
		stale := false
		for _, o := range offers {
			if o.Ref == refA {
				stale = true
			}
		}
		if !stale {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("offer of the draining provider never withdrawn")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// New bookings fail over to B through a plain import->bind.
	conn, offer2, err := trader.ImportBind(ctx, in.trd, pool, trader.NewImport("CarRentalService",
		trader.OrderBy("min:ChargePerDay")))
	if err != nil {
		t.Fatal(err)
	}
	if offer2.Ref != refB {
		t.Fatalf("bound %v during drain, want %v", offer2.Ref, refB)
	}
	gc := genclient.New(pool)
	binding := gc.Adopt(conn)
	if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "FIAT_Uno",
		"SelectCar.selection.days":  "1",
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := binding.Invoke(ctx, "Commit"); err != nil {
		t.Fatal(err)
	}

	// A sheds new work while draining instead of accepting it. The
	// drain starts only after Unpublish has left the browser too, which
	// the bookings above may outrun: wait for it.
	for deadline := time.Now().Add(5 * time.Second); !nodeA.Draining(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the retiring provider never started draining")
		}
	}
	_, err = pool.Call(ctx, refA.Endpoint, &wire.Request{Service: "DrainCars", Op: "Describe"})
	var remote *wire.RemoteError
	if !errors.As(err, &remote) || remote.Status != wire.StatusOverloaded {
		t.Fatalf("call during drain = %v, want StatusOverloaded", err)
	}

	// The in-flight call survives the whole retirement: zero failed
	// in-flight calls during the drain.
	free()
	if err := <-slowDone; err != nil {
		t.Fatalf("in-flight call failed during drain: %v", err)
	}
	if err := <-drained; err != nil {
		t.Fatalf("drain: %v", err)
	}
}

// crashProviderNode kills the provider node serving endpoint (tracked
// in the liveNodes registry by startProvider): listener and all
// connections drop, simulating a provider crash.
func crashProviderNode(t *testing.T, endpoint string) {
	t.Helper()
	nodesMu.Lock()
	node, ok := liveNodes[endpoint]
	delete(liveNodes, endpoint)
	nodesMu.Unlock()
	if !ok {
		t.Fatalf("no live node at %s", endpoint)
	}
	_ = node.Close()
}

// TestFailureGarbageCallBody sends a syntactically valid wire request
// whose body is junk: the service must answer StatusBadRequest and stay
// healthy.
func TestFailureGarbageCallBody(t *testing.T) {
	ctx := context.Background()
	svc, _, err := carrental.New()
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:fail-garbage"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	client, err := node.Pool().Get(ctx, "loop:fail-garbage")
	if err != nil {
		t.Fatal(err)
	}
	_, err = client.Call(ctx, &wire.Request{
		Service: "CarRentalService", Op: "SelectCar",
		Body: []byte{0xFF, 0x01, 0x02},
	})
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Status != wire.StatusBadRequest {
		t.Fatalf("err = %v, want StatusBadRequest", err)
	}

	// The service still works for well-formed clients.
	conn, err := cosm.Bind(ctx, node.Pool(), node.MustRefFor("CarRentalService"))
	if err != nil {
		t.Fatal(err)
	}
	sel := xcode.Zero(conn.SID().Type("SelectCar_t"))
	if err := sel.SetField("days", xcode.NewInt(sidl.Basic(sidl.Int32), 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Invoke(ctx, "SelectCar", sel); err != nil {
		t.Fatal(err)
	}
}

// TestFailureDriftedDescription simulates description drift: a client
// holds a stale SID whose operation no longer exists on the server. The
// failure is a clean "no such operation", not corruption.
func TestFailureDriftedDescription(t *testing.T) {
	ctx := context.Background()
	svc, _, err := carrental.New()
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:fail-drift"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	stale := sidl.CarRentalSID()
	stale.FSM = nil // and the stale description knows no protocol
	stale.Ops = append(stale.Ops, sidl.Op{Name: "CancelBooking", Result: sidl.Basic(sidl.Bool)})
	conn, err := cosm.BindWithSID(node.Pool(), node.MustRefFor("CarRentalService"), stale)
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Invoke(ctx, "CancelBooking")
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Status != wire.StatusNoOp {
		t.Fatalf("err = %v, want StatusNoOp", err)
	}
}

// TestFailureServerSideFSMBackstop shows the server-side enforcement
// catching a client whose stale SID lost the FSM: the protocol holds
// even against protocol-unaware clients.
func TestFailureServerSideFSMBackstop(t *testing.T) {
	ctx := context.Background()
	svc, _, err := carrental.New()
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host("CarRentalService", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:fail-backstop"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	stale := sidl.CarRentalSID()
	stale.FSM = nil // protocol-unaware client
	conn, err := cosm.BindWithSID(node.Pool(), node.MustRefFor("CarRentalService"), stale)
	if err != nil {
		t.Fatal(err)
	}
	_, err = conn.Invoke(ctx, "Commit") // illegal in INIT; client doesn't know
	var re *wire.RemoteError
	if !errors.As(err, &re) || re.Status != wire.StatusProtocol {
		t.Fatalf("err = %v, want StatusProtocol from the server", err)
	}
}

// TestFailureSlowServerDoesNotBlockOthers verifies connection
// multiplexing under a stalled handler: a slow op on the same
// connection must not delay a fast one.
func TestFailureSlowServerDoesNotBlockOthers(t *testing.T) {
	ctx := context.Background()
	src := `
module Mixed {
    interface COSM_Operations {
        void Slow();
        void Fast();
    };
};
`
	sid, err := sidl.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := cosm.NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	release := make(chan struct{})
	svc.MustHandle("Slow", func(*cosm.Call) error { <-release; return nil })
	svc.MustHandle("Fast", func(*cosm.Call) error { return nil })
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := node.Host("Mixed", svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:fail-slow"); err != nil {
		t.Fatal(err)
	}
	defer node.Close()

	conn, err := cosm.Bind(ctx, node.Pool(), node.MustRefFor("Mixed"))
	if err != nil {
		t.Fatal(err)
	}
	slowDone := make(chan error, 1)
	go func() {
		_, err := conn.Invoke(ctx, "Slow")
		slowDone <- err
	}()
	fastCtx, cancel := context.WithTimeout(ctx, 2*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := conn.Invoke(fastCtx, "Fast"); err != nil {
		t.Fatalf("Fast blocked behind Slow: %v", err)
	}
	if elapsed := time.Since(start); elapsed > time.Second {
		t.Fatalf("Fast took %v", elapsed)
	}
	close(release)
	if err := <-slowDone; err != nil {
		t.Fatal(err)
	}
}

// TestFailureLeaderCrashPromoteReplica: a replicated trader pair over
// the wire — a journalled leader with synchronous replication and a
// follower read replica pulling its WAL. The leader node dies
// abruptly; the client re-binds to the replica and keeps importing,
// and after an explicit fenced promotion the replica accepts exports
// too, with every acknowledged offer intact.
func TestFailureLeaderCrashPromoteReplica(t *testing.T) {
	ctx := context.Background()

	openHATrader := func(id, dir string, opts ...trader.Option) *trader.Trader {
		t.Helper()
		tr := trader.New(id, typemgr.NewRepo(), opts...)
		j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = j.Close() })
		if err := j.Start(tr.JournalSnapshot); err != nil {
			t.Fatal(err)
		}
		tr.SetJournal(j)
		return tr
	}
	serveTrader := func(tr *trader.Trader) (*cosm.Node, ref.ServiceRef) {
		t.Helper()
		svc, err := trader.NewService(tr)
		if err != nil {
			t.Fatal(err)
		}
		node := quietNode()
		if err := node.Host(trader.ServiceName, svc); err != nil {
			t.Fatal(err)
		}
		if _, err := node.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { _ = node.Close() })
		return node, node.MustRefFor(trader.ServiceName)
	}

	leader := openHATrader("HA", t.TempDir(), trader.WithReplSync(1, 2*time.Second))
	lnode, leaderRef := serveTrader(leader)

	follower := openHATrader("HA", t.TempDir())
	follower.SetFollower(leaderRef.String())
	fnode, followerRef := serveTrader(follower)
	defer follower.JoinCell(trader.CellConfig{Dial: trader.PoolDial(fnode.Pool())}).Close()

	// Trade against the leader: with -repl-sync semantics every export
	// below has been pulled by the replica before it returns.
	pool := wire.NewPool()
	defer pool.Close()
	tc, err := trader.DialTrader(ctx, pool, leaderRef)
	if err != nil {
		t.Fatal(err)
	}
	if err := tc.DefineTypeFromSID(ctx, sidl.CarRentalSID()); err != nil {
		t.Fatal(err)
	}
	const acked = 10
	for i := 0; i < acked; i++ {
		r := ref.New(fmt.Sprintf("tcp:10.3.0.%d:7000", i), "CarRentalService")
		if _, err := tc.Export(ctx, "CarRentalService", r, carProps(float64(50+i))); err != nil {
			t.Fatal(err)
		}
	}

	// The replica is a read replica: local imports work, mutations are
	// redirected at the leader.
	tf, err := trader.DialTrader(ctx, pool, followerRef)
	if err != nil {
		t.Fatal(err)
	}
	if offers, err := tf.Import(ctx, trader.NewImport("CarRentalService")); err != nil || len(offers) != acked {
		t.Fatalf("replica import = %d offers, %v", len(offers), err)
	}
	_, err = tf.Export(ctx, "CarRentalService", ref.New("tcp:10.3.1.1:7000", "CarRentalService"), carProps(1))
	if err == nil || !strings.Contains(err.Error(), "not leader") {
		t.Fatalf("replica export = %v, want not-leader rejection with hint", err)
	}
	if !strings.Contains(err.Error(), leaderRef.String()) {
		t.Fatalf("rejection %q lacks leader ref %s", err, leaderRef)
	}

	// The leader node dies abruptly. The client's next import against
	// it fails; re-binding to the replica keeps the market readable.
	_ = lnode.Close()
	if _, err := tc.Import(ctx, trader.NewImport("CarRentalService")); err == nil {
		t.Fatal("import against the dead leader succeeded")
	}
	offers, err := tf.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil || len(offers) != acked {
		t.Fatalf("replica import after leader death = %d offers, %v", len(offers), err)
	}

	// Fenced promotion over the wire turns the replica into the new
	// leader with zero lost acknowledged exports.
	if err := tf.Promote(ctx, 1); err != nil {
		t.Fatal(err)
	}
	st, err := tf.ReplStatus(ctx)
	if err != nil || st.Role != trader.RoleLeader || st.Epoch != 1 {
		t.Fatalf("promoted status = %+v, %v", st, err)
	}
	if _, err := tf.Export(ctx, "CarRentalService", ref.New("tcp:10.3.1.2:7000", "CarRentalService"), carProps(99)); err != nil {
		t.Fatal(err)
	}
	offers, err = tf.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil || len(offers) != acked+1 {
		t.Fatalf("post-promotion import = %d offers, %v", len(offers), err)
	}
}
