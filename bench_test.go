// Package bench is the experiment harness: one benchmark group per
// figure / evaluation claim of the paper, as indexed in DESIGN.md and
// recorded in EXPERIMENTS.md.
//
// The paper (ICDCS '94) is an architecture paper with no quantitative
// tables; Figures 1-7 depict interactions. Each group below exercises
// exactly the depicted interaction on the real implementation and
// measures it, and the Sec22/Sec23 groups quantify the prose claims of
// sections 2.2 and 2.3 via the market simulator.
//
//	go test -bench=. -benchmem
package bench

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"cosm/internal/activity"
	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/journal"
	"cosm/internal/market"
	"cosm/internal/naming"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/stub"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/uiform"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// ---------------------------------------------------------------------
// Shared fixtures
// ---------------------------------------------------------------------

func quietNode() *cosm.Node {
	return cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
}

func newCarRepo(b *testing.B) *typemgr.Repo {
	b.Helper()
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		b.Fatal(err)
	}
	if err := repo.Define(st); err != nil {
		b.Fatal(err)
	}
	return repo
}

func carProps(charge float64) []sidl.Property {
	return []sidl.Property{
		{Name: "CarModel", Value: sidl.EnumLit("FIAT_Uno")},
		{Name: "AverageMilage", Value: sidl.IntLit(38000)},
		{Name: "ChargePerDay", Value: sidl.FloatLit(charge)},
		{Name: "ChargeCurrency", Value: sidl.EnumLit("USD")},
	}
}

// fillTrader exports n offers spread over prices.
func fillTrader(b *testing.B, tr *trader.Trader, n int) {
	b.Helper()
	for i := 0; i < n; i++ {
		r := ref.New(fmt.Sprintf("tcp:10.0.%d.%d:7000", i/250, i%250), "CarRentalService")
		if _, err := tr.Export("CarRentalService", r, carProps(float64(40+i%100))); err != nil {
			b.Fatal(err)
		}
	}
}

// startRentalNode hosts the full car rental service on a loopback node.
func startRentalNode(b *testing.B, loopName string) (*cosm.Node, ref.ServiceRef) {
	b.Helper()
	svc, _, err := carrental.New()
	if err != nil {
		b.Fatal(err)
	}
	node := quietNode()
	if err := node.Host("CarRentalService", svc); err != nil {
		b.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = node.Close() })
	return node, node.MustRefFor("CarRentalService")
}

// ---------------------------------------------------------------------
// E1 / Fig. 1 — the ODP trader triangle
// ---------------------------------------------------------------------

// BenchmarkFig1_Export measures step 1 of Fig. 1: registering an offer
// (type check + store insert) at an in-process trader.
func BenchmarkFig1_Export(b *testing.B) {
	b.ReportAllocs()
	tr := trader.New("T", newCarRepo(b))
	props := carProps(80)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r := ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", i%250), "svc")
		if _, err := tr.Export("CarRentalService", r, props); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_Import measures steps 2-3: constrained, policy-ordered
// import against stores of growing size.
func BenchmarkFig1_Import(b *testing.B) {
	b.ReportAllocs()
	for _, size := range []int{16, 256, 4096} {
		b.Run(fmt.Sprintf("offers=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			tr := trader.New("T", newCarRepo(b))
			fillTrader(b, tr, size)
			req := trader.ImportRequest{
				Type:       "CarRentalService",
				Constraint: "ChargePerDay < 60 && ChargeCurrency == USD",
				Policy:     "min:ChargePerDay",
				Max:        5,
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				offers, err := tr.Import(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				if len(offers) == 0 {
					b.Fatal("no offers")
				}
			}
		})
	}
}

// BenchmarkFig1_ImportRemote measures the same import across the wire.
func BenchmarkFig1_ImportRemote(b *testing.B) {
	b.ReportAllocs()
	tr := trader.New("T", newCarRepo(b))
	fillTrader(b, tr, 256)
	svc, err := trader.NewService(tr)
	if err != nil {
		b.Fatal(err)
	}
	node := quietNode()
	if err := node.Host(trader.ServiceName, svc); err != nil {
		b.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:bench-fig1-remote"); err != nil {
		b.Fatal(err)
	}
	defer node.Close()
	ctx := context.Background()
	tc, err := trader.DialTrader(ctx, node.Pool(), node.MustRefFor(trader.ServiceName))
	if err != nil {
		b.Fatal(err)
	}
	req := trader.ImportRequest{Type: "CarRentalService", Constraint: "ChargePerDay < 60", Max: 5}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tc.Import(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig1_Triangle measures the whole figure: import at the
// trader, direct bind to the selected exporter, one invocation.
func BenchmarkFig1_Triangle(b *testing.B) {
	b.ReportAllocs()
	node, carRef := startRentalNode(b, "bench-fig1-triangle")
	tr := trader.New("T", newCarRepo(b))
	if _, err := tr.Export("CarRentalService", carRef, carProps(80)); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	sel := xcode.Zero(sidl.CarRentalSID().Type("SelectCar_t"))
	if err := sel.SetField("days", xcode.NewInt(sidl.Basic(sidl.Int32), 1)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		offer, err := trader.ImportOne(ctx, tr, trader.ImportRequest{Type: "CarRentalService"})
		if err != nil {
			b.Fatal(err)
		}
		conn, err := cosm.Bind(ctx, node.Pool(), offer.Ref)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Invoke(ctx, "SelectCar", sel); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E2 / Fig. 2 — SID subtype extension
// ---------------------------------------------------------------------

// extendedCarSID builds a car rental SID with n extra operations, n
// extra types and n unknown extension modules.
func extendedCarSID(n int) *sidl.SID {
	sid := sidl.CarRentalSID()
	for i := 0; i < n; i++ {
		t := sidl.StructOf(fmt.Sprintf("Extra%d_t", i),
			sidl.Field{Name: "payload", Type: sidl.Basic(sidl.String)},
			sidl.Field{Name: "count", Type: sidl.Basic(sidl.Int64)},
		)
		sid.Types = append(sid.Types, t)
		sid.Ops = append(sid.Ops, sidl.Op{
			Name:   fmt.Sprintf("Extra%d", i),
			Result: t,
			Params: []sidl.Param{{Name: "v", Dir: sidl.In, Type: t}},
		})
		sid.Unknown = append(sid.Unknown, sidl.RawModule{
			Name: fmt.Sprintf("COSM_Ext%d", i),
			Body: fmt.Sprintf("const long Version = %d;", i),
		})
	}
	return sid
}

// BenchmarkFig2_Conformance measures checking an extended SID against
// the base description as the extension grows.
func BenchmarkFig2_Conformance(b *testing.B) {
	b.ReportAllocs()
	base := sidl.CarRentalSID()
	for _, n := range []int{0, 8, 64} {
		b.Run(fmt.Sprintf("extensions=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			ext := extendedCarSID(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := ext.ConformsTo(base); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkFig2_ParseExtended measures a base-level parser processing an
// extended description: the unknown-module skipping of section 4.1.
func BenchmarkFig2_ParseExtended(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{0, 8, 64} {
		b.Run(fmt.Sprintf("extensions=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			text := extendedCarSID(n).IDL()
			b.SetBytes(int64(len(text)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := sidl.Parse(text); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E3 / Fig. 3 — generic client vs. static stub
// ---------------------------------------------------------------------

// BenchmarkFig3_StaticStubCall is the baseline: compiled marshalling,
// no SID, no FSM, over the same transport and server.
func BenchmarkFig3_StaticStubCall(b *testing.B) {
	b.ReportAllocs()
	node, carRef := startRentalNode(b, "bench-fig3-static")
	c, err := stub.Dial(node.Pool(), carRef, "bench")
	if err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	req := stub.SelectCarRequest{Model: stub.FIATUno, BookingDate: "1994-06-21", Days: 3}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := c.SelectCar(ctx, req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_GenericCall is the same call through the generic
// client: dynamic marshalling plus local FSM tracking.
func BenchmarkFig3_GenericCall(b *testing.B) {
	b.ReportAllocs()
	node, carRef := startRentalNode(b, "bench-fig3-generic")
	gc := genclient.New(node.Pool())
	ctx := context.Background()
	binding, err := gc.Bind(ctx, carRef)
	if err != nil {
		b.Fatal(err)
	}
	sel := xcode.Zero(binding.SID().Type("SelectCar_t"))
	if err := sel.SetField("days", xcode.NewInt(sidl.Basic(sidl.Int32), 3)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binding.Invoke(ctx, "SelectCar", sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3_GenericFirstUse measures the one-time cost the paper
// trades for zero client code: SID transfer, UI generation, first call.
func BenchmarkFig3_GenericFirstUse(b *testing.B) {
	b.ReportAllocs()
	node, carRef := startRentalNode(b, "bench-fig3-firstuse")
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		gc := genclient.New(node.Pool())
		binding, err := gc.Bind(ctx, carRef)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
			"SelectCar.selection.days": "3",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E4 / Fig. 4 — browser mediation
// ---------------------------------------------------------------------

func startBrowserNode(b *testing.B, loopName string, entries int) (*cosm.Node, ref.ServiceRef) {
	b.Helper()
	dir := browser.NewDirectory()
	for i := 0; i < entries; i++ {
		sid := sidl.CarRentalSID()
		sid.ServiceName = fmt.Sprintf("Rental%04d", i)
		if err := dir.Register(sid, ref.New(fmt.Sprintf("tcp:10.1.0.%d:7000", i%250), sid.ServiceName)); err != nil {
			b.Fatal(err)
		}
	}
	svc, err := browser.NewService(dir)
	if err != nil {
		b.Fatal(err)
	}
	node := quietNode()
	if err := node.Host(browser.ServiceName, svc); err != nil {
		b.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		b.Fatal(err)
	}
	b.Cleanup(func() { _ = node.Close() })
	return node, node.MustRefFor(browser.ServiceName)
}

// BenchmarkFig4_Register measures SID registration (step 1 of Fig. 4)
// over the wire, including SID text transfer and re-parsing.
func BenchmarkFig4_Register(b *testing.B) {
	b.ReportAllocs()
	node, browserRef := startBrowserNode(b, "bench-fig4-reg", 0)
	ctx := context.Background()
	bc, err := browser.DialBrowser(ctx, node.Pool(), browserRef)
	if err != nil {
		b.Fatal(err)
	}
	sid := sidl.CarRentalSID()
	target := ref.New("tcp:10.2.0.1:7000", "CarRentalService")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sid.ServiceName = fmt.Sprintf("Svc%d", i%1000) // bounded directory
		if err := bc.RegisterSID(ctx, sid, target); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_Search measures keyword browsing (step 2) against
// directories of growing size, over the wire.
func BenchmarkFig4_Search(b *testing.B) {
	b.ReportAllocs()
	for _, size := range []int{16, 256, 1024} {
		b.Run(fmt.Sprintf("entries=%d", size), func(b *testing.B) {
			b.ReportAllocs()
			node, browserRef := startBrowserNode(b, fmt.Sprintf("bench-fig4-search-%d", size), size)
			ctx := context.Background()
			bc, err := browser.DialBrowser(ctx, node.Pool(), browserRef)
			if err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				entries, err := bc.Search(ctx, "rental0001")
				if err != nil {
					b.Fatal(err)
				}
				if size > 1 && len(entries) == 0 {
					b.Fatal("no hits")
				}
			}
		})
	}
}

// BenchmarkFig4_BrowseBind measures steps 2-3 together: search, then
// bind using the SID from the entry (no describe round trip).
func BenchmarkFig4_BrowseBind(b *testing.B) {
	b.ReportAllocs()
	node, carRef := startRentalNode(b, "bench-fig4-bind-svc")
	dir := browser.NewDirectory()
	if err := dir.Register(sidl.CarRentalSID(), carRef); err != nil {
		b.Fatal(err)
	}
	bsvc, err := browser.NewService(dir)
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Host(browser.ServiceName, bsvc); err != nil {
		b.Fatal(err)
	}
	browserRef := node.MustRefFor(browser.ServiceName)
	gc := genclient.New(node.Pool())
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		binding, err := gc.BrowseAndBind(ctx, browserRef, "rent")
		if err != nil {
			b.Fatal(err)
		}
		if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
			"SelectCar.selection.days": "1",
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4_Cascade measures traversing a chain of browsers, each
// registered at the previous one, then binding at the end.
func BenchmarkFig4_Cascade(b *testing.B) {
	b.ReportAllocs()
	for _, depth := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("depth=%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			ctx := context.Background()
			_, carRef := startRentalNode(b, fmt.Sprintf("bench-fig4-casc-svc-%d", depth))

			// Build the chain: browser[depth-1] holds the service;
			// browser[i] holds browser[i+1].
			refs := make([]ref.ServiceRef, depth)
			var pool *wire.Pool
			for i := depth - 1; i >= 0; i-- {
				dir := browser.NewDirectory()
				if i == depth-1 {
					if err := dir.Register(sidl.CarRentalSID(), carRef); err != nil {
						b.Fatal(err)
					}
				}
				svc, err := browser.NewService(dir)
				if err != nil {
					b.Fatal(err)
				}
				node := quietNode()
				if err := node.Host(browser.ServiceName, svc); err != nil {
					b.Fatal(err)
				}
				if _, err := node.ListenAndServe(fmt.Sprintf("loop:bench-fig4-casc-%d-%d", depth, i)); err != nil {
					b.Fatal(err)
				}
				b.Cleanup(func() { _ = node.Close() })
				refs[i] = node.MustRefFor(browser.ServiceName)
				pool = node.Pool()
				if i < depth-1 {
					bc, err := browser.DialBrowser(ctx, pool, refs[i])
					if err != nil {
						b.Fatal(err)
					}
					childSID, err := cosm.Describe(ctx, pool, refs[i+1])
					if err != nil {
						b.Fatal(err)
					}
					childSID.ServiceName = fmt.Sprintf("Browser%d", i+1)
					if err := bc.RegisterSID(ctx, childSID, refs[i+1]); err != nil {
						b.Fatal(err)
					}
				}
			}

			gc := genclient.New(pool)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				// Walk the cascade from the root to the service.
				cur := refs[0]
				for {
					entries, err := gc.Browse(ctx, cur, "")
					if err != nil {
						b.Fatal(err)
					}
					if len(entries) != 1 {
						b.Fatalf("entries = %d", len(entries))
					}
					if entries[0].SID.ServiceName == "CarRentalService" {
						if _, err := gc.BindEntry(entries[0]); err != nil {
							b.Fatal(err)
						}
						break
					}
					cur = entries[0].Ref
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E5 / Fig. 6 — full architecture stack
// ---------------------------------------------------------------------

// BenchmarkFig6_FullStack measures a call that crosses every layer of
// the prototype architecture: name server resolution, binder, SID
// describe, dynamic marshalling, RPC, FSM check, application handler.
func BenchmarkFig6_FullStack(b *testing.B) {
	b.ReportAllocs()
	node, carRef := startRentalNode(b, "bench-fig6-stack")
	nameSvc, err := naming.NewService(naming.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Host(naming.ServiceName, nameSvc); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	nc, err := naming.DialNameServer(ctx, node.Pool(), node.MustRefFor(naming.ServiceName))
	if err != nil {
		b.Fatal(err)
	}
	if err := nc.Register(ctx, "rentals/main", carRef); err != nil {
		b.Fatal(err)
	}
	binder := naming.NewBinder(node.Pool(), nc, naming.WithoutBinderCache())
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		conn, err := binder.BindName(ctx, "rentals/main")
		if err != nil {
			b.Fatal(err)
		}
		sel := xcode.Zero(conn.SID().Type("SelectCar_t"))
		if err := sel.SetField("days", xcode.NewInt(sidl.Basic(sidl.Int32), 1)); err != nil {
			b.Fatal(err)
		}
		if _, err := conn.Invoke(ctx, "SelectCar", sel); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_DynamicMarshal isolates the communication-level codec:
// type-directed marshalling of the paper's SelectCar_t request.
func BenchmarkFig6_DynamicMarshal(b *testing.B) {
	b.ReportAllocs()
	sid := sidl.CarRentalSID()
	sel := xcode.Zero(sid.Type("SelectCar_t"))
	if err := sel.SetField("bookingDate", xcode.NewString(sidl.Basic(sidl.String), "1994-06-21")); err != nil {
		b.Fatal(err)
	}
	var buf []byte
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = xcode.AppendMarshal(buf[:0], sel)
		if _, err := xcode.Unmarshal(sel.Type, buf); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig6_SIDTransfer measures marshalling and re-parsing the SID
// itself — the communicable-first-class-object cost.
func BenchmarkFig6_SIDTransfer(b *testing.B) {
	b.ReportAllocs()
	sid := sidl.CarRentalSID()
	text, err := sid.MarshalText()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var s sidl.SID
		if err := s.UnmarshalText(text); err != nil {
			b.Fatal(err)
		}
	}
}

// ---------------------------------------------------------------------
// E6 / Fig. 7 — automatic user interface generation
// ---------------------------------------------------------------------

// wideSID builds a SID whose single operation takes a record with n
// fields, to sweep form size.
func wideSID(n int) *sidl.SID {
	var fields strings.Builder
	for i := 0; i < n; i++ {
		fmt.Fprintf(&fields, "        string f%d;\n", i)
	}
	src := fmt.Sprintf(`
module Wide {
    struct Big_t {
%s    };
    interface COSM_Operations {
        void Touch(in Big_t v);
    };
};
`, fields.String())
	sid, err := sidl.Parse(src)
	if err != nil {
		panic(err)
	}
	return sid
}

// BenchmarkFig7_FormGeneration measures generating the operation forms
// from a SID as the interface grows.
func BenchmarkFig7_FormGeneration(b *testing.B) {
	b.ReportAllocs()
	for _, n := range []int{4, 32, 256} {
		b.Run(fmt.Sprintf("fields=%d", n), func(b *testing.B) {
			b.ReportAllocs()
			sid := wideSID(n)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				forms := uiform.Generate(sid)
				if forms[0].CountWidgets() != n+1 {
					b.Fatal("bad widget count")
				}
			}
		})
	}
}

// BenchmarkFig7_RenderUI measures rendering the full car rental dialog.
func BenchmarkFig7_RenderUI(b *testing.B) {
	b.ReportAllocs()
	sid := sidl.CarRentalSID()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if out := uiform.RenderAll(sid); len(out) == 0 {
			b.Fatal("empty UI")
		}
	}
}

// BenchmarkFig7_LocalInterception measures rejecting a protocol-
// violating invocation at the generic client: it must cost no network
// traffic at all (section 4.2).
func BenchmarkFig7_LocalInterception(b *testing.B) {
	b.ReportAllocs()
	node, carRef := startRentalNode(b, "bench-fig7-intercept")
	gc := genclient.New(node.Pool())
	ctx := context.Background()
	binding, err := gc.Bind(ctx, carRef)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := binding.Invoke(ctx, "Commit"); err == nil {
			b.Fatal("Commit in INIT must be intercepted")
		}
	}
}

// ---------------------------------------------------------------------
// E7 / section 2.2 — time to market
// ---------------------------------------------------------------------

// BenchmarkSec22_TimeToMarket runs the market simulator per regime and
// reports the paper-shape metrics (time to first use, unmet demand) as
// custom benchmark metrics alongside the run time.
func BenchmarkSec22_TimeToMarket(b *testing.B) {
	b.ReportAllocs()
	p := market.DefaultParams()
	for _, regime := range []market.Regime{market.TradingOnly, market.MediationOnly, market.Integrated} {
		b.Run(regime.String(), func(b *testing.B) {
			b.ReportAllocs()
			var last market.Metrics
			for i := 0; i < b.N; i++ {
				m, err := market.Run(p, regime)
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(last.MeanTimeToFirstUse, "ttfu-days")
			b.ReportMetric(float64(last.UnmetDemand), "unmet-uses")
			b.ReportMetric(float64(last.UsesServed), "served-uses")
			b.ReportMetric(last.FirstMoverShare, "first-mover-share")
		})
	}
}

// ---------------------------------------------------------------------
// E8 / section 2.3 — transition costs and crossover
// ---------------------------------------------------------------------

// BenchmarkSec23_TransitionCosts reports the cost split per regime.
func BenchmarkSec23_TransitionCosts(b *testing.B) {
	b.ReportAllocs()
	p := market.DefaultParams()
	for _, regime := range []market.Regime{market.TradingOnly, market.MediationOnly, market.Integrated} {
		b.Run(regime.String(), func(b *testing.B) {
			b.ReportAllocs()
			var last market.Metrics
			for i := 0; i < b.N; i++ {
				m, err := market.Run(p, regime)
				if err != nil {
					b.Fatal(err)
				}
				last = m
			}
			b.ReportMetric(last.ClientDevCost, "clientdev-cost")
			b.ReportMetric(last.OverheadCost, "overhead-cost")
			b.ReportMetric(last.NetUtility, "net-utility")
		})
	}
}

// ---------------------------------------------------------------------
// Ablations (design choices called out in DESIGN.md §5)
// ---------------------------------------------------------------------

// BenchmarkAblation_ConstraintCompile compares cached compiled
// constraints against per-import re-parsing.
func BenchmarkAblation_ConstraintCompile(b *testing.B) {
	b.ReportAllocs()
	for _, cached := range []bool{true, false} {
		name := "cached"
		opts := []trader.Option{}
		if !cached {
			name = "reparse"
			opts = append(opts, trader.WithConstraintCacheSize(0))
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			tr := trader.New("T", newCarRepo(b), opts...)
			fillTrader(b, tr, 256)
			req := trader.ImportRequest{
				Type:       "CarRentalService",
				Constraint: "(ChargePerDay < 60 || ChargePerDay > 120) && ChargeCurrency == USD && CarModel == FIAT_Uno",
			}
			ctx := context.Background()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := tr.Import(ctx, req); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkAblation_OfferIndex compares the type-indexed offer store
// against a linear scan, with offers spread over many types.
func BenchmarkAblation_OfferIndex(b *testing.B) {
	b.ReportAllocs()
	const types, perType = 64, 64
	build := func(b *testing.B, opts ...trader.Option) *trader.Trader {
		repo := typemgr.NewRepo()
		tr := trader.New("T", repo, opts...)
		for t := 0; t < types; t++ {
			sid := sidl.CarRentalSID()
			sid.Trader.TypeOfService = fmt.Sprintf("Rental%02d", t)
			st, err := typemgr.FromSID(sid)
			if err != nil {
				b.Fatal(err)
			}
			// Make each type structurally distinct so conformance checks
			// do not union all types together.
			st.Attrs = append(st.Attrs, typemgr.AttrDef{
				Name: fmt.Sprintf("Marker%02d", t), Type: sidl.Basic(sidl.Bool),
			})
			if err := repo.Define(st); err != nil {
				b.Fatal(err)
			}
			for i := 0; i < perType; i++ {
				props := append(carProps(float64(40+i)), sidl.Property{
					Name: fmt.Sprintf("Marker%02d", t), Value: sidl.BoolLit(true),
				})
				r := ref.New(fmt.Sprintf("tcp:10.3.%d.%d:7000", t, i), "svc")
				if _, err := tr.Export(st.Name, r, props); err != nil {
					b.Fatal(err)
				}
			}
		}
		return tr
	}
	req := trader.ImportRequest{Type: "Rental33", Constraint: "ChargePerDay < 60"}
	ctx := context.Background()
	for _, indexed := range []bool{true, false} {
		name := "indexed"
		opts := []trader.Option{}
		if !indexed {
			name = "linear"
			opts = append(opts, trader.WithoutOfferIndex())
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			tr := build(b, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				offers, err := tr.Import(ctx, req)
				if err != nil {
					b.Fatal(err)
				}
				if len(offers) == 0 {
					b.Fatal("no offers")
				}
			}
		})
	}
}

// BenchmarkAblation_SIDCache compares the binder with and without its
// reference/SID cache: the cache removes both the name-server round
// trip and the SID transfer from repeat bindings.
func BenchmarkAblation_SIDCache(b *testing.B) {
	b.ReportAllocs()
	node, carRef := startRentalNode(b, "bench-abl-sidcache")
	nameSvc, err := naming.NewService(naming.NewRegistry())
	if err != nil {
		b.Fatal(err)
	}
	if err := node.Host(naming.ServiceName, nameSvc); err != nil {
		b.Fatal(err)
	}
	ctx := context.Background()
	nc, err := naming.DialNameServer(ctx, node.Pool(), node.MustRefFor(naming.ServiceName))
	if err != nil {
		b.Fatal(err)
	}
	if err := nc.Register(ctx, "rentals/main", carRef); err != nil {
		b.Fatal(err)
	}
	for _, cached := range []bool{true, false} {
		name := "cached"
		opts := []naming.BinderOption{}
		if !cached {
			name = "uncached"
			opts = append(opts, naming.WithoutBinderCache())
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			binder := naming.NewBinder(node.Pool(), nc, opts...)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := binder.BindName(ctx, "rentals/main"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkExt_TwoPhaseCommit measures the activity-manager extension
// (Fig. 6 "Activity Management" / "Transactional RPC"): begin, enlist n
// participants, one reservation each, two-phase commit.
func BenchmarkExt_TwoPhaseCommit(b *testing.B) {
	b.ReportAllocs()
	for _, participants := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("participants=%d", participants), func(b *testing.B) {
			b.ReportAllocs()
			node := quietNode()
			if _, err := node.ListenAndServe(fmt.Sprintf("loop:bench-2pc-%d", participants)); err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			refs := make([]ref.ServiceRef, participants)
			for i := range refs {
				r, err := hostBenchInventory(node, fmt.Sprintf("Inv%d", i))
				if err != nil {
					b.Fatal(err)
				}
				refs[i] = r
			}
			m := activity.NewManager(node.Pool())
			ctx := context.Background()
			strT := sidl.Basic(sidl.String)
			int32T := sidl.Basic(sidl.Int32)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := m.Begin()
				for _, r := range refs {
					if err := m.Join(id, r); err != nil {
						b.Fatal(err)
					}
					conn, err := cosm.Bind(ctx, node.Pool(), r)
					if err != nil {
						b.Fatal(err)
					}
					if _, err := conn.Invoke(ctx, "Reserve",
						xcode.NewString(strT, id), xcode.NewInt(int32T, 1)); err != nil {
						b.Fatal(err)
					}
				}
				committed, err := m.Commit(ctx, id)
				if err != nil || !committed {
					b.Fatalf("commit = %v, %v", committed, err)
				}
			}
		})
	}
}

// benchInventory is a minimal always-yes transactional resource.
type benchInventory struct {
	mu      sync.Mutex
	pending map[string]int
	total   int
}

func (inv *benchInventory) Prepare(string) error { return nil }
func (inv *benchInventory) Commit(id string) error {
	inv.mu.Lock()
	inv.total += inv.pending[id]
	delete(inv.pending, id)
	inv.mu.Unlock()
	return nil
}
func (inv *benchInventory) Abort(id string) error {
	inv.mu.Lock()
	delete(inv.pending, id)
	inv.mu.Unlock()
	return nil
}

func hostBenchInventory(node *cosm.Node, name string) (ref.ServiceRef, error) {
	base, err := sidl.Parse(`
module Inv {
    interface COSM_Operations {
        void Reserve(in string activity, in long units);
    };
};
`)
	if err != nil {
		return ref.ServiceRef{}, err
	}
	base.ServiceName = name
	svc, err := cosm.NewService(activity.ExtendSID(base))
	if err != nil {
		return ref.ServiceRef{}, err
	}
	inv := &benchInventory{pending: map[string]int{}}
	svc.MustHandle("Reserve", func(call *cosm.Call) error {
		id, err := call.Arg("activity")
		if err != nil {
			return err
		}
		units, err := call.Arg("units")
		if err != nil {
			return err
		}
		inv.mu.Lock()
		inv.pending[id.Str] += int(units.Int)
		inv.mu.Unlock()
		return nil
	})
	if err := activity.HandleParticipant(svc, inv); err != nil {
		return ref.ServiceRef{}, err
	}
	if err := node.Host(name, svc); err != nil {
		return ref.ServiceRef{}, err
	}
	return node.RefFor(name)
}

// ---------------------------------------------------------------------
// E9 / overload — admission control and load shedding
// ---------------------------------------------------------------------

// BenchmarkOverload_Saturation drives a server whose true service
// capacity is one request per `work` interval (a single internal slot)
// with far more concurrent callers than it can serve — beyond
// saturation. The unbounded variant queues everything inside the
// server, so the latency of served requests grows with the backlog;
// with admission control the excess is shed immediately with
// StatusOverloaded and the p99 of what *is* served stays bounded by
// MaxInFlight + MaxQueue. Reported metrics: p99 of served requests,
// served throughput, and the shed / client-timeout fractions.
func BenchmarkOverload_Saturation(b *testing.B) {
	b.ReportAllocs()
	const (
		workers = 32
		work    = 2 * time.Millisecond
	)
	cases := []struct {
		name   string
		policy wire.AdmissionPolicy
	}{
		{"unbounded", wire.AdmissionPolicy{}},
		{"shedding", wire.AdmissionPolicy{MaxInFlight: 4, MaxQueue: 4, QueueWait: 4 * work}},
	}
	for _, tc := range cases {
		b.Run(tc.name, func(b *testing.B) {
			b.ReportAllocs()
			// One service slot: the bottleneck is the resource behind the
			// handler, not goroutine scheduling.
			slot := make(chan struct{}, 1)
			h := wire.HandlerFunc(func(ctx context.Context, _ string, _ *wire.Request) *wire.Response {
				select {
				case slot <- struct{}{}:
				case <-ctx.Done():
					return &wire.Response{Status: wire.StatusAppError, ErrMsg: "deadline before service"}
				}
				defer func() { <-slot }()
				select {
				case <-time.After(work):
					return &wire.Response{Status: wire.StatusOK}
				case <-ctx.Done():
					return &wire.Response{Status: wire.StatusAppError, ErrMsg: "deadline during service"}
				}
			})
			s := wire.NewServer(wire.WithServerLog(func(string, ...any) {}), wire.WithAdmission(tc.policy))
			if err := s.Register("svc", h); err != nil {
				b.Fatal(err)
			}
			endpoint, err := s.ListenAndServe("loop:bench-overload-" + tc.name)
			if err != nil {
				b.Fatal(err)
			}
			defer s.Close()
			req := &wire.Request{Service: "svc", Op: "Work"}

			// One connection per worker: independent clients, so a shed
			// storm on one connection cannot queue behind another's reads.
			clients := make([]*wire.Client, workers)
			for w := range clients {
				c, err := wire.Dial(endpoint)
				if err != nil {
					b.Fatal(err)
				}
				defer c.Close()
				clients[w] = c
			}

			var (
				mu       sync.Mutex
				served   []time.Duration
				sheds    int
				timeouts int
			)
			calls := make(chan struct{})
			var wg sync.WaitGroup
			for w := 0; w < workers; w++ {
				wg.Add(1)
				go func(c *wire.Client) {
					defer wg.Done()
					var lat []time.Duration
					shed, timedOut := 0, 0
					for range calls {
						ctx, cancel := context.WithTimeout(context.Background(), 500*time.Millisecond)
						t0 := time.Now()
						_, err := c.Call(ctx, req)
						d := time.Since(t0)
						cancel()
						var remote *wire.RemoteError
						switch {
						case err == nil:
							lat = append(lat, d)
						case errors.As(err, &remote) && remote.Status == wire.StatusOverloaded:
							shed++
						default:
							timedOut++
						}
					}
					mu.Lock()
					served = append(served, lat...)
					sheds += shed
					timeouts += timedOut
					mu.Unlock()
				}(clients[w])
			}
			b.ResetTimer()
			t0 := time.Now()
			for i := 0; i < b.N; i++ {
				calls <- struct{}{}
			}
			close(calls)
			wg.Wait()
			elapsed := time.Since(t0)
			b.StopTimer()

			if len(served) > 0 {
				sort.Slice(served, func(i, j int) bool { return served[i] < served[j] })
				idx := len(served) * 99 / 100
				if idx >= len(served) {
					idx = len(served) - 1
				}
				b.ReportMetric(float64(served[idx])/float64(time.Millisecond), "p99-ms")
				b.ReportMetric(float64(len(served))/elapsed.Seconds(), "served-per-sec")
			}
			b.ReportMetric(float64(sheds)/float64(b.N), "shed-frac")
			b.ReportMetric(float64(timeouts)/float64(b.N), "timeout-frac")
		})
	}
}

// BenchmarkAblation_Transport compares the loopback and TCP transports
// under the same dynamic invocation.
func BenchmarkAblation_Transport(b *testing.B) {
	b.ReportAllocs()
	for _, endpoint := range []string{"loop:bench-abl-transport", "tcp:127.0.0.1:0"} {
		name := strings.SplitN(endpoint, ":", 2)[0]
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			svc, _, err := carrental.New()
			if err != nil {
				b.Fatal(err)
			}
			node := quietNode()
			if err := node.Host("CarRentalService", svc); err != nil {
				b.Fatal(err)
			}
			if _, err := node.ListenAndServe(endpoint); err != nil {
				b.Fatal(err)
			}
			defer node.Close()
			ctx := context.Background()
			conn, err := cosm.Bind(ctx, node.Pool(), node.MustRefFor("CarRentalService"))
			if err != nil {
				b.Fatal(err)
			}
			sel := xcode.Zero(conn.SID().Type("SelectCar_t"))
			if err := sel.SetField("days", xcode.NewInt(sidl.Basic(sidl.Int32), 1)); err != nil {
				b.Fatal(err)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := conn.Invoke(ctx, "SelectCar", sel); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// ---------------------------------------------------------------------
// E9 — replicated market state (read replicas)
// ---------------------------------------------------------------------

// BenchmarkReplicaImport_10kOffers is the matching hot path — 10k
// stored offers, 64 concurrent importers, a ~5% selective range
// constraint — served by a follower read replica: the local matching
// path over replicated state, proving reads cost the same on a replica
// as on the leader (cosmbench's import_match measures the leader side).
func BenchmarkReplicaImport_10kOffers(b *testing.B) {
	const stored = 10_000
	dir := b.TempDir()
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		b.Fatal(err)
	}
	leader := trader.New("HA", newCarRepo(b))
	if err := j.Start(leader.JournalSnapshot); err != nil {
		b.Fatal(err)
	}
	leader.SetJournal(j)
	fillTrader(b, leader, stored)
	defer j.Close()

	ctx := context.Background()
	follower := trader.New("HA", newCarRepo(b))
	follower.SetFollower("cosm://leader")
	for {
		batch, err := leader.PullBatch(ctx, "bench", follower.Epoch(), follower.ReplApplied(), 2048, 0)
		if err != nil {
			b.Fatal(err)
		}
		if _, err := follower.ApplyBatch(batch); err != nil {
			b.Fatal(err)
		}
		if follower.ReplApplied() >= batch.LastSeq {
			break
		}
	}

	req := trader.ImportRequest{
		Type:       "CarRentalService",
		Constraint: "ChargePerDay < 45",
		Policy:     "min:ChargePerDay",
		Max:        5,
	}
	if warm, err := follower.Import(ctx, req); err != nil || len(warm) == 0 {
		b.Fatalf("warmup import = %v, %v", warm, err)
	}
	factor := (64 + runtime.GOMAXPROCS(0) - 1) / runtime.GOMAXPROCS(0)
	b.SetParallelism(factor)
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			res, err := follower.Import(ctx, req)
			if err != nil {
				b.Fatal(err)
			}
			if len(res) == 0 {
				b.Fatal("no offers")
			}
		}
	})
}

// ---------------------------------------------------------------------
// E11 — flight recorder (cluster event timeline)
// ---------------------------------------------------------------------

// BenchmarkEventLogAppend measures the cluster timeline append paid at
// every recorded state transition (vote, promote, breaker trip, ...).
// These are rare events — correctness matters more than speed — but
// the append must stay cheap enough to call from election hot paths.
func BenchmarkEventLogAppend(b *testing.B) {
	b.Run("nil", func(b *testing.B) {
		var ev *obs.EventLog
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Record("vote_granted", "candidate", "n1", "epoch", "7")
		}
	})
	b.Run("enabled", func(b *testing.B) {
		ev := obs.NewEventLog("bench", 1024)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			ev.Record("vote_granted", "candidate", "n1", "epoch", "7")
		}
	})
}

// ---------------------------------------------------------------------
// E12 — federated trader mesh (link registry + summary-routed scatter)
// ---------------------------------------------------------------------

// buildMesh stands up a fully linked in-process mesh of n traders, each
// exporting `offers` offers of its own distinct service type.
func buildMesh(b *testing.B, n, offers int) []*trader.Trader {
	b.Helper()
	meshType := func(i int) string { return fmt.Sprintf("MeshService%02d", i) }
	traders := make([]*trader.Trader, n)
	for i := range traders {
		repo := typemgr.NewRepo()
		st := typemgr.ServiceType{
			Name:  meshType(i),
			Attrs: []typemgr.AttrDef{{Name: "Price", Type: sidl.Basic(sidl.Float64)}},
		}
		if err := repo.Define(&st); err != nil {
			b.Fatal(err)
		}
		traders[i] = trader.New(fmt.Sprintf("mesh-%02d", i), repo, trader.WithImportCacheTTL(0))
		for k := 0; k < offers; k++ {
			r := ref.New(fmt.Sprintf("tcp:10.42.%d.%d:7000", i, k+1), meshType(i))
			props := []sidl.Property{{Name: "Price", Value: sidl.FloatLit(float64(10 + (i+k)%90))}}
			if _, err := traders[i].Export(meshType(i), r, props); err != nil {
				b.Fatal(err)
			}
		}
	}
	for i, a := range traders {
		for j, p := range traders {
			if i == j {
				continue
			}
			if err := a.AddLink(fmt.Sprintf("mesh-%02d", j), p); err != nil {
				b.Fatal(err)
			}
		}
	}
	return traders
}

// BenchmarkMesh_GossipRound measures one summary-exchange round: the
// importing trader pushing its digest to (and pulling digests from) all
// 49 mesh peers. This is the background cost that buys the scatter
// narrowing cosmbench's federated_import workload measures.
func BenchmarkMesh_GossipRound(b *testing.B) {
	b.ReportAllocs()
	traders := buildMesh(b, 50, 5)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if pushed, failed := traders[0].GossipRound(ctx, time.Second); failed > 0 || pushed == 0 {
			b.Fatalf("gossip round: pushed=%d failed=%d", pushed, failed)
		}
	}
}
