package bench

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"

	"cosm/internal/browser"
	"cosm/internal/carrental"
	"cosm/internal/cosm"
	"cosm/internal/genclient"
	"cosm/internal/naming"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/stub"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// infraNode bundles the infrastructure services of Fig. 6 on one node
// over real TCP.
type infraNode struct {
	node   *cosm.Node
	trader *trader.Trader
	names  *naming.NameClient
	brw    *browser.Client
	trd    *trader.Client
}

func startInfra(t *testing.T, traderID string) *infraNode {
	t.Helper()
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))

	nameSvc, err := naming.NewService(naming.NewRegistry())
	if err != nil {
		t.Fatal(err)
	}
	browserSvc, err := browser.NewService(browser.NewDirectory())
	if err != nil {
		t.Fatal(err)
	}
	repo := typemgr.NewRepo()
	carType, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		t.Fatal(err)
	}
	if err := repo.Define(carType); err != nil {
		t.Fatal(err)
	}
	tr := trader.New(traderID, repo)
	traderSvc, err := trader.NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	groupSvc, err := naming.NewGroupService(naming.NewGroups())
	if err != nil {
		t.Fatal(err)
	}
	for name, svc := range map[string]*cosm.Service{
		naming.ServiceName:      nameSvc,
		naming.GroupServiceName: groupSvc,
		browser.ServiceName:     browserSvc,
		trader.ServiceName:      traderSvc,
	} {
		if err := node.Host(name, svc); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := node.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { _ = node.Close() })

	ctx := context.Background()
	in := &infraNode{node: node, trader: tr}
	if in.names, err = naming.DialNameServer(ctx, node.Pool(), node.MustRefFor(naming.ServiceName)); err != nil {
		t.Fatal(err)
	}
	if in.brw, err = browser.DialBrowser(ctx, node.Pool(), node.MustRefFor(browser.ServiceName)); err != nil {
		t.Fatal(err)
	}
	if in.trd, err = trader.DialTrader(ctx, node.Pool(), node.MustRefFor(trader.ServiceName)); err != nil {
		t.Fatal(err)
	}
	return in
}

// liveNodes tracks provider nodes by endpoint so failure tests can
// crash one deliberately (see failure_test.go).
var (
	nodesMu   sync.Mutex
	liveNodes = map[string]*cosm.Node{}
)

// startProvider hosts a car rental company over TCP and publishes it.
func startProvider(t *testing.T, in *infraNode, name string, tariff carrental.Tariff) ref.ServiceRef {
	t.Helper()
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	svc, impl, err := carrental.New(carrental.WithTariff(tariff))
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(name, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	nodesMu.Lock()
	liveNodes[node.Endpoint()] = node
	nodesMu.Unlock()
	t.Cleanup(func() {
		nodesMu.Lock()
		delete(liveNodes, node.Endpoint())
		nodesMu.Unlock()
		_ = node.Close()
	})

	sid := impl.SID().Clone()
	sid.ServiceName = name
	if fiat, ok := tariff["FIAT_Uno"]; ok {
		for i, p := range sid.Trader.Properties {
			if p.Name == "ChargePerDay" {
				sid.Trader.Properties[i].Value = sidl.FloatLit(fiat)
			}
		}
	}
	self := node.MustRefFor(name)
	if _, err := carrental.Publish(context.Background(), sid, self, in.brw, in.trd); err != nil {
		t.Fatal(err)
	}
	return self
}

// TestIntegrationFullMarket drives the complete COSM scenario over TCP:
// infrastructure node, two providers, discovery via both browser and
// trader, generic-client booking with FSM enforcement, and name-server
// bootstrap.
func TestIntegrationFullMarket(t *testing.T) {
	ctx := context.Background()
	in := startInfra(t, "it-hamburg")

	alster := startProvider(t, in, "AlsterCars", carrental.Tariff{"FIAT_Uno": 85, "AUDI": 120})
	elbe := startProvider(t, in, "ElbeRental", carrental.Tariff{"FIAT_Uno": 78})

	// Bootstrap via the name server.
	if err := in.names.Register(ctx, "market/browser", in.node.MustRefFor(browser.ServiceName)); err != nil {
		t.Fatal(err)
	}
	browserRef, err := in.names.Resolve(ctx, "market/browser")
	if err != nil {
		t.Fatal(err)
	}

	// Mediation path: both providers browsable.
	gc := genclient.New(wire.NewPool())
	entries, err := gc.Browse(ctx, browserRef, "rent")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 2 {
		t.Fatalf("browse found %d entries, want 2", len(entries))
	}

	// Trading path: constrained, policy-ordered import picks the
	// cheaper provider.
	offer, err := trader.ImportOne(ctx, in.trd, trader.NewImport("CarRentalService",
		trader.Where("CarModel == FIAT_Uno && ChargePerDay < 90"),
		trader.OrderBy("min:ChargePerDay")))
	if err != nil {
		t.Fatal(err)
	}
	if offer.Ref != elbe {
		t.Fatalf("best offer = %v, want %v", offer.Ref, elbe)
	}
	_ = alster

	// Bind and complete the paper's booking protocol.
	binding, err := gc.Bind(ctx, offer.Ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := binding.Invoke(ctx, "Commit"); !errors.Is(err, genclient.ErrProtocol) {
		t.Fatalf("premature Commit err = %v", err)
	}
	if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.model": "FIAT_Uno",
		"SelectCar.selection.days":  "3",
	}); err != nil {
		t.Fatal(err)
	}
	res, err := binding.Invoke(ctx, "Commit")
	if err != nil {
		t.Fatal(err)
	}
	conf, err := res.Value.Field("confirmation")
	if err != nil || !strings.Contains(conf.Str, "FIAT_Uno-3d") {
		t.Fatalf("confirmation = %v, %v", conf, err)
	}
}

// TestIntegrationFederationOverTCP federates two full infrastructure
// domains over TCP and imports across them.
func TestIntegrationFederationOverTCP(t *testing.T) {
	ctx := context.Background()
	hamburg := startInfra(t, "it-fed-hamburg")
	munich := startInfra(t, "it-fed-munich")

	remoteMunich, err := trader.DialTrader(ctx, hamburg.node.Pool(), munich.node.MustRefFor(trader.ServiceName))
	if err != nil {
		t.Fatal(err)
	}
	if err := hamburg.trader.AddLink("munich", remoteMunich); err != nil {
		t.Fatal(err)
	}

	isar := startProvider(t, munich, "IsarCars", carrental.Tariff{"FIAT_Uno": 66})

	// Local import at Hamburg sees nothing; hop 1 reaches Munich.
	offers, err := hamburg.trd.Import(ctx, trader.NewImport("CarRentalService"))
	if err != nil || len(offers) != 0 {
		t.Fatalf("hop 0 offers = %v, %v", offers, err)
	}
	offers, err = hamburg.trd.Import(ctx, trader.NewImport("CarRentalService", trader.Hops(1)))
	if err != nil || len(offers) != 1 || offers[0].Ref != isar {
		t.Fatalf("hop 1 offers = %v, %v", offers, err)
	}

	// And the federated offer is directly bindable from Hamburg.
	gc := genclient.New(hamburg.node.Pool())
	binding, err := gc.Bind(ctx, offers[0].Ref)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
		"SelectCar.selection.days": "1",
	}); err != nil {
		t.Fatal(err)
	}
}

// TestIntegrationMixedStubAndGeneric checks wire compatibility of all
// four client/server combinations over TCP.
func TestIntegrationMixedStubAndGeneric(t *testing.T) {
	ctx := context.Background()

	// Dynamic server (cosm runtime, FSM off so the stateless static
	// client may Commit first).
	sid := sidl.CarRentalSID()
	dynSvc, err := cosm.NewService(sid, cosm.WithoutFSMEnforcement())
	if err != nil {
		t.Fatal(err)
	}
	dynSvc.MustHandle("SelectCar", func(call *cosm.Call) error {
		out := xcode.Zero(sid.Type("SelectCarReturn_t"))
		if err := out.SetField("available", xcode.NewBool(sidl.Basic(sidl.Bool), true)); err != nil {
			return err
		}
		call.Result = out
		return nil
	})
	dynSvc.MustHandle("Commit", func(call *cosm.Call) error {
		call.Result = xcode.Zero(sid.Type("BookCarReturn_t"))
		return nil
	})
	dynNode := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := dynNode.Host("CarRentalService", dynSvc); err != nil {
		t.Fatal(err)
	}
	if _, err := dynNode.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dynNode.Close()
	dynRef := dynNode.MustRefFor("CarRentalService")

	// Static server (hand-written stubs over bare wire).
	statSrv := wire.NewServer(wire.WithServerLog(func(string, ...any) {}))
	if err := statSrv.Register("CarRentalService", stub.Handler(stub.FixedImpl{ChargePerDay: 80})); err != nil {
		t.Fatal(err)
	}
	statEP, err := statSrv.ListenAndServe("tcp:127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer statSrv.Close()
	statRef := ref.New(statEP, "CarRentalService")

	pool := wire.NewPool()
	defer pool.Close()

	servers := []struct {
		name string
		ref  ref.ServiceRef
	}{{"dynamic-server", dynRef}, {"static-server", statRef}}
	for _, srv := range servers {
		srv := srv
		t.Run("static-client/"+srv.name, func(t *testing.T) {
			c, err := stub.Dial(pool, srv.ref, "mix")
			if err != nil {
				t.Fatal(err)
			}
			sel, err := c.SelectCar(ctx, stub.SelectCarRequest{Model: stub.FIATUno, Days: 2})
			if err != nil || !sel.Available {
				t.Fatalf("SelectCar = %+v, %v", sel, err)
			}
		})
		t.Run("generic-client/"+srv.name, func(t *testing.T) {
			// The static server cannot serve a SID; supply it out of
			// band in that case.
			conn, err := cosm.BindWithSID(pool, srv.ref, sidl.CarRentalSID())
			if err != nil {
				t.Fatal(err)
			}
			sel := xcode.Zero(sid.Type("SelectCar_t"))
			if err := sel.SetField("days", xcode.NewInt(sidl.Basic(sidl.Int32), 2)); err != nil {
				t.Fatal(err)
			}
			res, err := conn.Invoke(ctx, "SelectCar", sel)
			if err != nil {
				t.Fatal(err)
			}
			if avail, _ := res.Value.Field("available"); !avail.Bool {
				t.Fatalf("available = %s", res.Value)
			}
		})
	}
}

// TestIntegrationConcurrentClients hammers one provider from many
// concurrent generic clients over TCP; sessions must stay isolated.
func TestIntegrationConcurrentClients(t *testing.T) {
	ctx := context.Background()
	in := startInfra(t, "it-conc")
	target := startProvider(t, in, "ConcurrentCars", carrental.DefaultTariff())

	const clients = 12
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gc := genclient.New(wire.NewPool())
			binding, err := gc.Bind(ctx, target)
			if err != nil {
				errs[i] = err
				return
			}
			for round := 0; round < 5; round++ {
				if _, err := binding.InvokeForm(ctx, "SelectCar", map[string]string{
					"SelectCar.selection.model": "VW_Golf",
					"SelectCar.selection.days":  fmt.Sprint(round + 1),
				}); err != nil {
					errs[i] = err
					return
				}
				res, err := binding.Invoke(ctx, "Commit")
				if err != nil {
					errs[i] = err
					return
				}
				conf, err := res.Value.Field("confirmation")
				if err != nil {
					errs[i] = err
					return
				}
				if want := fmt.Sprintf("VW_Golf-%dd", round+1); !strings.Contains(conf.Str, want) {
					errs[i] = fmt.Errorf("client %d round %d got %q, want %q", i, round, conf.Str, want)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}

// TestIntegrationGroupBroadcast pings a group of provider nodes through
// the group manager plus wire groups (the multicast function of Fig. 6).
func TestIntegrationGroupBroadcast(t *testing.T) {
	ctx := context.Background()
	in := startInfra(t, "it-groups")

	gclient, err := naming.DialGroups(ctx, in.node.Pool(), in.node.MustRefFor(naming.GroupServiceName))
	if err != nil {
		t.Fatal(err)
	}
	var refs []ref.ServiceRef
	for i := 0; i < 3; i++ {
		r := startProvider(t, in, fmt.Sprintf("GroupCars%d", i), carrental.DefaultTariff())
		refs = append(refs, r)
		if err := gclient.Join(ctx, "providers", r.Endpoint); err != nil {
			t.Fatal(err)
		}
	}
	members, err := gclient.Members(ctx, "providers")
	if err != nil || len(members) != 3 {
		t.Fatalf("members = %v, %v", members, err)
	}

	pool := wire.NewPool()
	defer pool.Close()
	grp := wire.NewGroup(pool)
	for _, m := range members {
		grp.Join(m)
	}
	// Broadcast a liveness ping to each provider's service.
	results := grp.Broadcast(ctx, &wire.Request{Service: "GroupCars0", Op: cosm.OpPing})
	okCount := 0
	for _, r := range results {
		if r.Err == nil {
			okCount++
		}
	}
	// Only the node hosting GroupCars0 answers that service name; the
	// others respond with "no such service" — which is still a timely
	// response, proving connectivity.
	if okCount != 1 {
		t.Fatalf("okCount = %d, want 1 (results %+v)", okCount, results)
	}
}
