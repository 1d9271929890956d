package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"time"

	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/naming"
	"cosm/internal/obs"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
)

// chaosConfig parameterises the live chaos-market demo.
type chaosConfig struct {
	seed     int64
	bookings int
	reset    float64
	drop     float64
	corrupt  float64
	latency  time.Duration
}

func registerChaosFlags(fs *flag.FlagSet) *chaosConfig {
	cc := &chaosConfig{}
	fs.IntVar(&cc.bookings, "chaos-bookings", 8, "bookings per chaos phase")
	fs.Float64Var(&cc.reset, "chaos-reset", 0.02, "probability of an injected connection reset per read/write")
	fs.Float64Var(&cc.drop, "chaos-drop", 0.02, "probability of a silently dropped write")
	fs.Float64Var(&cc.corrupt, "chaos-corrupt", 0.01, "probability of a corrupted byte per read/write")
	fs.DurationVar(&cc.latency, "chaos-latency", 0, "injected latency per transport operation")
	return cc
}

// runChaos stands up a live market over TCP — an infrastructure node
// (trader, browser, name server) and three car rental providers — then
// books cars through a fault-injected client transport, crashes the
// cheapest provider mid-run, and shows the resilience machinery
// degrade gracefully: per-call retries, import->bind failover past the
// dead offer, and the trader's liveness sweeper suspecting and then
// withdrawing it. All randomness is seeded, so the injected fault
// schedule is reproducible (timing-dependent counts may still vary).
func runChaos(w io.Writer, cc chaosConfig) error {
	ctx := context.Background()

	// --- infrastructure node: trader + browser + name server -------
	infra := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	defer infra.Close()
	nameSvc, err := naming.NewService(naming.NewRegistry())
	if err != nil {
		return err
	}
	browserSvc, err := browser.NewService(browser.NewDirectory())
	if err != nil {
		return err
	}
	repo := typemgr.NewRepo()
	carType, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		return err
	}
	if err := repo.Define(carType); err != nil {
		return err
	}
	tr := trader.New("chaos-market", repo)
	traderSvc, err := trader.NewService(tr)
	if err != nil {
		return err
	}
	for name, svc := range map[string]*cosm.Service{
		naming.ServiceName:  nameSvc,
		browser.ServiceName: browserSvc,
		trader.ServiceName:  traderSvc,
	} {
		if err := infra.Host(name, svc); err != nil {
			return err
		}
	}
	infraEP, err := infra.ListenAndServe("tcp:127.0.0.1:0")
	if err != nil {
		return err
	}

	// --- three providers, distinct prices ---------------------------
	type provider struct {
		name   string
		tariff float64
		node   *cosm.Node
		pub    *carrental.Publication
	}
	providers := []*provider{
		{name: "AlsterCars", tariff: 85},
		{name: "ElbeRental", tariff: 78}, // cheapest: the crash victim
		{name: "IsarCars", tariff: 95},
	}
	brw, err := browser.DialBrowser(ctx, infra.Pool(), infra.MustRefFor(browser.ServiceName))
	if err != nil {
		return err
	}
	trd, err := trader.DialTrader(ctx, infra.Pool(), infra.MustRefFor(trader.ServiceName))
	if err != nil {
		return err
	}
	for _, p := range providers {
		p.node = cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
		defer p.node.Close()
		svc, impl, err := carrental.New(carrental.WithTariff(carrental.Tariff{"FIAT_Uno": p.tariff}))
		if err != nil {
			return err
		}
		if err := p.node.Host(p.name, svc); err != nil {
			return err
		}
		if _, err := p.node.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
			return err
		}
		sid := impl.SID().Clone()
		sid.ServiceName = p.name
		for i, prop := range sid.Trader.Properties {
			if prop.Name == "ChargePerDay" {
				sid.Trader.Properties[i].Value = sidl.FloatLit(p.tariff)
			}
		}
		if p.pub, err = carrental.Publish(ctx, sid, p.node.MustRefFor(p.name), brw, trd); err != nil {
			return err
		}
	}

	fmt.Fprintf(w, "COSM chaos market: seed %d, faults reset=%.0f%% drop=%.0f%% corrupt=%.0f%% latency=%s\n",
		cc.seed, 100*cc.reset, 100*cc.drop, 100*cc.corrupt, cc.latency)
	fmt.Fprintf(w, "infrastructure at %s; providers:", infraEP)
	for _, p := range providers {
		fmt.Fprintf(w, " %s(%.0f)", p.name, p.tariff)
	}
	fmt.Fprintln(w)

	// --- client side: everything flows through the fault injector ---
	faults := wire.NewFaultNet(wire.FaultConfig{
		Seed:        cc.seed,
		ResetProb:   cc.reset,
		DropProb:    cc.drop,
		CorruptProb: cc.corrupt,
		Latency:     cc.latency,
	}, wire.DialConnContext)
	// The chaos pool carries client metrics; per-phase table rows are
	// interval views diffed from readings at the phase boundaries.
	reg := obs.NewRegistry()
	pool := wire.NewPool(wire.WithDialer(faults.Dial), wire.WithPoolMetrics(reg))
	defer pool.Close()
	gc := genclient.New(pool)
	chaosTrd, err := trader.DialTrader(ctx, pool, infra.MustRefFor(trader.ServiceName))
	if err != nil {
		return err
	}

	// book runs one full booking protocol: import (policy-ordered),
	// bind the first live provider, SelectCar, Commit. A fault can kill
	// a booking mid-protocol; the protocol is stateful, so recovery is
	// a fresh import->bind->book from the top — never a blind re-send
	// of the failed call.
	bookOnce := func(actx context.Context, days int) (string, error) {
		conn, offer, err := trader.ImportBind(actx, chaosTrd, pool, trader.NewImport("CarRentalService",
			trader.Where("CarModel == FIAT_Uno"),
			trader.OrderBy("min:ChargePerDay")))
		if err != nil {
			return "", err
		}
		b := gc.Adopt(conn)
		if _, err := b.InvokeForm(actx, "SelectCar", map[string]string{
			"SelectCar.selection.model": "FIAT_Uno",
			"SelectCar.selection.days":  fmt.Sprint(days),
		}); err != nil {
			return "", err
		}
		if _, err := b.Invoke(actx, "Commit"); err != nil {
			return "", err
		}
		return offer.Ref.Service, nil
	}
	book := func(days int) (string, error) {
		// One root trace per logical booking: retries and the failover
		// to the next-best offer all land under the same trace ID in
		// the provider/trader logs.
		bctx, _ := obs.EnsureTrace(ctx)
		var lastErr error
		for attempt := 0; attempt < 4; attempt++ {
			// Each attempt gets a deadline: a dropped frame never gets a
			// response, and the deadline turns that silence into a
			// retryable failure.
			actx, cancel := context.WithTimeout(bctx, 3*time.Second)
			who, err := bookOnce(actx, days)
			cancel()
			if err == nil {
				return who, nil
			}
			lastErr = err
		}
		return "", lastErr
	}

	var phases []phaseRow
	runPhase := func(label string) {
		before := readClientTotals(reg)
		served := map[string]int{}
		failed := 0
		for i := 0; i < cc.bookings; i++ {
			who, err := book(i%5 + 1)
			if err != nil {
				failed++
				continue
			}
			served[who]++
		}
		phases = append(phases, phaseRow{label, readClientTotals(reg).sub(before)})
		fmt.Fprintf(w, "%s: %d/%d bookings completed;", label, cc.bookings-failed, cc.bookings)
		for _, p := range providers {
			if n := served[p.name]; n > 0 {
				fmt.Fprintf(w, " %s=%d", p.name, n)
			}
		}
		fmt.Fprintln(w)
	}

	// Phase 1: all providers alive; cheapest provider wins every time.
	runPhase("phase 1 (all live)")

	// Phase 2: crash the cheapest provider without withdrawing its
	// offer — exactly the stale-offer hazard of a long-lived market.
	var victim *provider
	for _, p := range providers {
		if victim == nil || p.tariff < victim.tariff {
			victim = p
		}
	}
	_ = victim.node.Close()
	fmt.Fprintf(w, "crashed %s (cheapest) without withdrawing its offer\n", victim.name)
	runPhase("phase 2 (failover)")

	// The trader's sweeper notices independently: the first sweep marks
	// the dead provider's offer suspect, the second withdraws it. A
	// deployment runs the same sweeps from a background timer (Start);
	// here they are driven synchronously so the report lines interleave
	// deterministically with the rest of the output.
	sweeper := trader.NewSweeper(tr, infra.Pool(), trader.WithFailThreshold(2))
	defer sweeper.Close()
	for i := 1; i <= 2; i++ {
		rep := sweeper.SweepOnce(ctx)
		fmt.Fprintf(w, "sweep %d: checked=%d healthy=%d suspected=%d withdrawn=%d\n",
			i, rep.Checked, rep.Healthy, rep.Suspected, rep.Withdrawn)
	}

	offers, err := trd.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "post-sweep import: %d offer(s) remain (dead offer withdrawn)\n", len(offers))

	// Phase 3: retire a live provider *gracefully* — deregister first
	// (withdraw offer + browser entry), then drain. Unlike the crash
	// above, no sweeps are needed: importers simply stop seeing the
	// offer and bind to the remaining provider.
	var retiree *provider
	for _, p := range providers {
		if p != victim && (retiree == nil || p.tariff < retiree.tariff) {
			retiree = p
		}
	}
	drainCtx, cancelDrain := context.WithTimeout(ctx, 5*time.Second)
	if err := retiree.pub.Unpublish(drainCtx); err != nil {
		cancelDrain()
		return err
	}
	if err := retiree.node.Shutdown(drainCtx); err != nil {
		cancelDrain()
		return err
	}
	cancelDrain()
	fmt.Fprintf(w, "gracefully drained %s (offer withdrawn before shutdown)\n", retiree.name)
	runPhase("phase 3 (after drain)")

	fs := faults.Stats()
	ps := pool.Stats()
	fmt.Fprintf(w, "transport: dials=%d injected resets=%d drops=%d corruptions=%d\n",
		fs.Dials, fs.Resets, fs.Drops, fs.Corruptions)
	fmt.Fprintf(w, "pool: retries=%d fail-fast=%d breaker-opens=%d breaker[%s]=%s\n",
		ps.Retries, ps.FailFast, ps.BreakerOpens, victim.name, pool.BreakerState(victim.node.Endpoint()))

	fmt.Fprintln(w, "per-phase client metrics:")
	fmt.Fprintf(w, "  %-24s %6s %7s %6s %8s %9s\n", "phase", "calls", "errors", "sheds", "retries", "p99")
	for _, r := range phases {
		fmt.Fprintf(w, "  %-24s %6d %7d %6d %8d %9s\n",
			r.label, r.calls, r.errors, r.sheds, r.retries,
			time.Duration(r.latency.Quantile(0.99)*float64(time.Second)).Round(100*time.Microsecond))
	}
	return nil
}

// phaseRow is one line of the per-phase summary table: the client
// metrics scoped to the phase by diffing the readings taken at its
// boundaries, rather than ad-hoc counters in the demo loop.
type phaseRow struct {
	label string
	clientTotals
}

// clientTotals is one reading of the cosm_client_* families.
type clientTotals struct {
	calls, errors, sheds, retries uint64
	latency                       obs.HistSnapshot // per-attempt, all endpoints merged
}

// readClientTotals reads the families wire.WithPoolMetrics bound in reg.
func readClientTotals(reg *obs.Registry) clientTotals {
	t := clientTotals{
		sheds:   reg.Counter("cosm_client_sheds_total", "").Value(),
		retries: reg.Counter("cosm_client_retries_total", "").Value(),
	}
	for status, n := range reg.CounterVec("cosm_client_calls_total", "", "status").Snapshot() {
		t.calls += n
		if status != "ok" {
			t.errors += n
		}
	}
	for _, s := range reg.HistogramVec("cosm_client_call_seconds", "", "endpoint", nil).Snapshot() {
		t.latency = t.latency.Merge(s)
	}
	return t
}

// sub returns the interval reading t − prev.
func (t clientTotals) sub(prev clientTotals) clientTotals {
	return clientTotals{
		calls:   t.calls - prev.calls,
		errors:  t.errors - prev.errors,
		sheds:   t.sheds - prev.sheds,
		retries: t.retries - prev.retries,
		latency: t.latency.Sub(prev.latency),
	}
}
