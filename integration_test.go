package bench

import (
	"context"
	"encoding/binary"
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

// TestIntegrationMixedStubAndGeneric checks wire compatibility of the
// four client/server combinations over TCP. The static client is
// Fig. 3's: the car rental SID compiled in, and Go structs (selectCar,
// selectCarReturn) through the typed binder. The dynamic server is the
// cosm car rental service. The static server is a bare wire handler,
// the minimal 1994 RPC server: no SID, no FSM, no dynamic dispatch. It
// cannot be described, so a generic client reaches it only with a SID
// obtained out of band.
func TestIntegrationMixedStubAndGeneric(t *testing.T) {
	ctx := context.Background()
	sid := sidl.CarRentalSID()

	dynSvc, _, err := carrental.New()
	if err != nil {
		t.Fatal(err)
	}
	dynNode := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	if err := dynNode.Host("CarRentalService", dynSvc); err != nil {
		t.Fatal(err)
	}
	if _, err := dynNode.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
		t.Fatal(err)
	}
	defer dynNode.Close()
	dynRef := dynNode.MustRefFor("CarRentalService")

	// The static server frames request and reply by hand, each value a
	// chunk (a uvarint length, then the bytes) after the request's
	// session chunk, and binds the values with the typed binder.
	chunk := func(data string) (string, string) {
		n, size := binary.Uvarint([]byte(data))
		if size <= 0 || uint64(len(data)-size) < n {
			return "", ""
		}
		return data[size : size+int(n)], data[size+int(n):]
	}
	statSrv := wire.NewServer(wire.WithServerLog(func(string, ...any) {}))
	err = statSrv.Register("CarRentalService", wire.HandlerFunc(func(_ context.Context, _ string, req *wire.Request) *wire.Response {
		if req.Op != "SelectCar" {
			return &wire.Response{Status: wire.StatusNoOp, ErrMsg: req.Op}
		}
		_, args := chunk(req.Received)
		arg, _ := chunk(args)
		var sel selectCar
		if err := xcode.DecodeInto(sid.Type("SelectCar_t"), arg, &sel); err != nil {
			return &wire.Response{Status: wire.StatusBadRequest, ErrMsg: err.Error()}
		}
		ret, err := xcode.AppendEncode(nil, sid.Type("SelectCarReturn_t"), selectCarReturn{Available: true, Charge: 80 * float64(sel.Days), Currency: "USD"})
		if err != nil {
			return &wire.Response{Status: wire.StatusAppError, ErrMsg: err.Error()}
		}
		return &wire.Response{Status: wire.StatusOK, Body: append(binary.AppendUvarint(nil, uint64(len(ret))), ret...)}
	}))
	if err != nil {
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
		name        string
		ref         ref.ServiceRef
		describable bool
	}{{"dynamic-server", dynRef, true}, {"static-server", statRef, false}}
	for _, srv := range servers {
		srv := srv
		t.Run("static-client/"+srv.name, func(t *testing.T) {
			conn, err := cosm.BindWithSID(pool, srv.ref, sid)
			if err != nil {
				t.Fatal(err)
			}
			var ret selectCarReturn
			if err := conn.Call(ctx, "SelectCar", &ret, &selectCar{Model: "FIAT_Uno", Days: 2}); err != nil || !ret.Available || ret.Charge != 160 {
				t.Fatalf("SelectCar = %+v, %v", ret, err)
			}
		})
		t.Run("generic-client/"+srv.name, func(t *testing.T) {
			conn, err := cosm.Bind(ctx, pool, srv.ref)
			if (err == nil) != srv.describable {
				t.Fatalf("describe: %v, want describable = %v", err, srv.describable)
			}
			if !srv.describable {
				if conn, err = cosm.BindWithSID(pool, srv.ref, sid); err != nil {
					t.Fatal(err)
				}
			}
			sel := xcode.Zero(conn.SID().Type("SelectCar_t"))
			model, err := xcode.NewEnum(conn.SID().Type("CarModel_t"), "FIAT_Uno")
			if err != nil {
				t.Fatal(err)
			}
			if err := sel.SetField("model", model); err != nil {
				t.Fatal(err)
			}
			if err := sel.SetField("days", xcode.NewInt(sidl.Basic(sidl.Int32), 2)); err != nil {
				t.Fatal(err)
			}
			res, err := conn.Invoke(ctx, "SelectCar", sel)
			if err != nil {
				t.Fatal(err)
			}
			avail, _ := res.Value.Field("available")
			charge, _ := res.Value.Field("charge")
			if !avail.Bool || charge.Float != 160 {
				t.Fatalf("SelectCar = %s", res.Value)
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
