package trader

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"cosm/internal/wire"
)

func TestLinkRegistryAddRemoveList(t *testing.T) {
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	c := New("C", newCarRepo(t))

	if err := a.AddLink("", b); err == nil {
		t.Fatal("AddLink with empty name must fail")
	}
	mustLink(t, a, "b", b)
	if err := a.AddLink("b", c); !errors.Is(err, ErrLinkExists) {
		t.Fatalf("duplicate AddLink err = %v, want ErrLinkExists", err)
	}
	mustLink(t, a, "c", c)

	links := a.Links()
	if len(links) != 2 || links[0].Name != "b" || links[1].Name != "c" {
		t.Fatalf("Links() = %+v, want [b c]", links)
	}
	if links[0].PeerID != "B" || links[1].PeerID != "C" {
		t.Fatalf("peer IDs = %q, %q", links[0].PeerID, links[1].PeerID)
	}
	if links[0].State != "closed" {
		t.Fatalf("fresh link state = %q, want closed", links[0].State)
	}
	if links[0].SummaryAge >= 0 {
		t.Fatalf("fresh link summary age = %v, want negative (none)", links[0].SummaryAge)
	}

	if err := a.RemoveLink("b"); err != nil {
		t.Fatal(err)
	}
	if err := a.RemoveLink("b"); !errors.Is(err, ErrLinkUnknown) {
		t.Fatalf("double RemoveLink err = %v, want ErrLinkUnknown", err)
	}
	if n := a.LinkCount(); n != 1 {
		t.Fatalf("LinkCount = %d, want 1", n)
	}
}

// The registry's normal operating mode is concurrent mutation and
// import fan-out; this test exists to fail under -race.
func TestLinkRegistryConcurrentAddRemoveImport(t *testing.T) {
	ctx := context.Background()
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	if _, err := b.Export("CarRentalService", carRef(1), carProps("AUDI", 50, "USD")); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				name := fmt.Sprintf("l-%d-%d", g, i)
				if err := a.AddLink(name, b); err != nil {
					t.Errorf("AddLink(%q): %v", name, err)
				}
				if i%3 == 0 {
					_ = a.RemoveLink(name)
				}
			}
		}(g)
	}
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 20; i++ {
				if _, err := a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1}); err != nil {
					t.Errorf("Import: %v", err)
				}
				a.Links()
			}
		}()
	}
	wg.Wait()
}

// A 3-trader directed cycle A -> B -> C -> A must terminate and return
// each reachable offer exactly once, whether the hop limit saturates
// the cycle exactly or vastly exceeds it.
func TestMeshCycleExactlyOnce(t *testing.T) {
	ctx := context.Background()
	for _, hops := range []int{2, 10} {
		t.Run(fmt.Sprintf("hoplimit-%d", hops), func(t *testing.T) {
			a := New("A", newCarRepo(t))
			b := New("B", newCarRepo(t))
			c := New("C", newCarRepo(t))
			mustLink(t, a, "b", b)
			mustLink(t, b, "c", c)
			mustLink(t, c, "a", a)
			for i, tr := range []*Trader{a, b, c} {
				if _, err := tr.Export("CarRentalService", carRef(i+1), carProps("AUDI", 50, "USD")); err != nil {
					t.Fatal(err)
				}
			}

			// White-box through federatedMatches so the final
			// by-reference dedupe cannot mask a double delivery.
			got := a.federatedMatches(ctx, ImportRequest{Type: "CarRentalService", HopLimit: hops})
			byID := map[string]int{}
			for _, o := range got {
				byID[o.ID]++
			}
			if len(byID) != 2 {
				t.Fatalf("federated offers = %v, want exactly B's and C's", byID)
			}
			for id, n := range byID {
				if n != 1 {
					t.Fatalf("offer %s delivered %d times, want exactly once", id, n)
				}
			}
			// The cycle must not re-import A's own offer via C.
			offers, err := a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: hops})
			if err != nil || len(offers) != 3 {
				t.Fatalf("full import = %d offers, %v; want 3", len(offers), err)
			}
		})
	}
}

// Summary-routed imports consult only the peers whose gossiped summary
// covers the requested type: a 10-trader hub-and-spoke mesh where one
// spoke holds the offers must query 1 peer, not 9. (The CI mesh smoke
// step runs this test.)
func TestMeshSummaryRoutedImportConsultsFewPeers(t *testing.T) {
	ctx := context.Background()
	hub := New("hub", newCarRepo(t))
	for i := 0; i < 9; i++ {
		peer := New(fmt.Sprintf("peer-%d", i), newCarRepo(t))
		if i == 4 {
			if _, err := peer.Export("CarRentalService", carRef(40), carProps("VW_Golf", 61, "DEM")); err != nil {
				t.Fatal(err)
			}
		}
		mustLink(t, hub, fmt.Sprintf("peer-%d", i), peer)
	}

	// Without summaries every link has unknown coverage: full fan-out.
	before := hub.FedStats()
	offers, err := hub.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil || len(offers) != 1 {
		t.Fatalf("pre-gossip import = %+v, %v", offers, err)
	}
	after := hub.FedStats()
	if asked := after.PeersAsked - before.PeersAsked; asked != 9 {
		t.Fatalf("pre-gossip peers asked = %d, want 9 (full fan-out)", asked)
	}
	if after.Full != before.Full+1 {
		t.Fatalf("full fan-outs = %d, want %d", after.Full, before.Full+1)
	}

	// One gossip round teaches the hub which peer holds the type.
	if pushed, failed := hub.GossipRound(ctx, time.Second); pushed != 9 || failed != 0 {
		t.Fatalf("gossip round pushed %d, failed %d", pushed, failed)
	}
	before = hub.FedStats()
	offers, err = hub.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil || len(offers) != 1 {
		t.Fatalf("routed import = %+v, %v", offers, err)
	}
	after = hub.FedStats()
	if asked := after.PeersAsked - before.PeersAsked; asked != 1 {
		t.Fatalf("routed peers asked = %d, want 1", asked)
	}
	if after.Routed != before.Routed+1 {
		t.Fatalf("routed fan-outs = %d, want %d", after.Routed, before.Routed+1)
	}
}

// MaxPeers bounds the fan-out even without summaries; link name order
// makes the choice deterministic.
func TestMeshMaxPeersBoundsFanOut(t *testing.T) {
	ctx := context.Background()
	hub := New("hub", newCarRepo(t))
	for i := 1; i <= 3; i++ {
		peer := New(fmt.Sprintf("P%d", i), newCarRepo(t))
		if _, err := peer.Export("CarRentalService", carRef(i), carProps("AUDI", float64(50+i), "USD")); err != nil {
			t.Fatal(err)
		}
		mustLink(t, hub, fmt.Sprintf("p%d", i), peer)
	}

	before := hub.FedStats()
	offers, err := hub.Import(ctx, NewImport("CarRentalService", Hops(1), MaxPeers(2)))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 2 {
		t.Fatalf("offers = %d, want 2 (two peers consulted)", len(offers))
	}
	if asked := hub.FedStats().PeersAsked - before.PeersAsked; asked != 2 {
		t.Fatalf("peers asked = %d, want 2", asked)
	}
}

// Hedge promotes the spare left by MaxPeers when the primary runs late.
func TestMeshHedgePromotesSpare(t *testing.T) {
	hub := New("hub", newCarRepo(t))
	live := New("LIVE", newCarRepo(t))
	if _, err := live.Export("CarRentalService", carRef(9), carProps("VW_Golf", 70, "DEM")); err != nil {
		t.Fatal(err)
	}
	// "a-dead" sorts before "b-live", so MaxPeers(1) picks the black
	// hole as the primary and leaves the live peer as the hedge spare.
	mustLink(t, hub, "a-dead", &blackholeFederate{id: "DEAD"})
	mustLink(t, hub, "b-live", live)

	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	before := hub.FedStats()
	offers, err := hub.Import(ctx, NewImport("CarRentalService",
		Hops(1), MaxPeers(1), Hedge(20*time.Millisecond)))
	if err != nil {
		t.Fatal(err)
	}
	if len(offers) != 1 || offers[0].Ref != carRef(9) {
		t.Fatalf("offers = %+v, want the hedged live peer's offer", offers)
	}
	after := hub.FedStats()
	if after.Hedged != before.Hedged+1 {
		t.Fatalf("hedged = %d, want %d", after.Hedged, before.Hedged+1)
	}
	if asked := after.PeersAsked - before.PeersAsked; asked != 2 {
		t.Fatalf("peers asked = %d, want 2 (primary + hedge)", asked)
	}
}

// Breaker-open links are skipped by the scatter plan until cooldown.
func TestMeshBreakerSkipsDeadLink(t *testing.T) {
	hub := New("hub", newCarRepo(t),
		withLinkPolicy(wire.BreakerPolicy{Threshold: 3, Cooldown: time.Minute}))
	live := New("LIVE", newCarRepo(t))
	if _, err := live.Export("CarRentalService", carRef(5), carProps("AUDI", 44, "USD")); err != nil {
		t.Fatal(err)
	}
	mustLink(t, hub, "dead", &failingFederate{id: "DEAD"})
	mustLink(t, hub, "live", live)

	ctx := context.Background()
	// Drive the dead link's breaker open, then confirm the plan stops
	// consulting it.
	for i := 0; i < 4; i++ {
		if _, err := hub.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1}); err != nil {
			t.Fatal(err)
		}
	}
	var deadState string
	for _, li := range hub.Links() {
		if li.Name == "dead" {
			deadState = string(li.State)
		}
	}
	if deadState != "open" {
		t.Fatalf("dead link state = %q, want open", deadState)
	}
	before := hub.FedStats()
	offers, err := hub.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil || len(offers) != 1 {
		t.Fatalf("import = %+v, %v", offers, err)
	}
	if asked := hub.FedStats().PeersAsked - before.PeersAsked; asked != 1 {
		t.Fatalf("peers asked = %d, want 1 (open breaker skipped)", asked)
	}
}

// failingFederate answers every query with an error immediately.
type failingFederate struct{ id string }

func (f *failingFederate) FederationID() string { return f.id }

func (f *failingFederate) ImportGraded(context.Context, ImportRequest) ([]Match, error) {
	return nil, errors.New("boom")
}

func TestHopBudgetSplitsDeadline(t *testing.T) {
	ctx, cancel := context.WithTimeout(context.Background(), time.Second)
	defer cancel()
	sub, subCancel, cutoff, ok := hopBudget(ctx, 2)
	defer subCancel()
	if !ok {
		t.Fatal("budgeted context must report ok")
	}
	parent, _ := ctx.Deadline()
	child, _ := sub.Deadline()
	if !child.Before(parent) {
		t.Fatalf("child deadline %v must precede parent %v", child, parent)
	}
	if !child.Equal(cutoff) {
		t.Fatalf("cutoff %v != child deadline %v", cutoff, child)
	}

	// No deadline: pass-through, unbudgeted.
	sub2, c2, _, ok2 := hopBudget(context.Background(), 1)
	defer c2()
	if ok2 {
		t.Fatal("deadline-free context must not be budgeted")
	}
	if _, has := sub2.Deadline(); has {
		t.Fatal("pass-through context must stay deadline-free")
	}
}
