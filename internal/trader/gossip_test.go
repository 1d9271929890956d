package trader

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestSummaryAdvertisesOwnOffers(t *testing.T) {
	tr := New("A", newCarRepo(t))
	for i := 1; i <= 3; i++ {
		if _, err := tr.Export("CarRentalService", carRef(i), carProps("AUDI", 50, "USD")); err != nil {
			t.Fatal(err)
		}
	}
	s := tr.Summary()
	if s.From != "A" || s.Gen == 0 {
		t.Fatalf("summary header = %+v", s)
	}
	if len(s.Entries) != 1 {
		t.Fatalf("entries = %+v, want one type", s.Entries)
	}
	e := s.Entries[0]
	if e.Type != "CarRentalService" || e.Count != 3 || e.Hops != 0 {
		t.Fatalf("entry = %+v, want {CarRentalService 3 0}", e)
	}
}

// A summary relays what direct links advertised as their own, one hop
// further — but no deeper than the horizon.
func TestSummaryRelaysWithinHorizon(t *testing.T) {
	ctx := context.Background()
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	c := New("C", newCarRepo(t))
	mustLink(t, a, "b", b)
	mustLink(t, b, "c", c)
	if _, err := c.Export("CarRentalService", carRef(1), carProps("VW_Golf", 70, "DEM")); err != nil {
		t.Fatal(err)
	}

	// B learns C's summary, then A learns B's (which relays C's entry).
	if pushed, failed := b.GossipRound(ctx, time.Second); pushed != 1 || failed != 0 {
		t.Fatalf("b gossip: pushed %d failed %d", pushed, failed)
	}
	if pushed, failed := a.GossipRound(ctx, time.Second); pushed != 1 || failed != 0 {
		t.Fatalf("a gossip: pushed %d failed %d", pushed, failed)
	}

	links := a.Links()
	if len(links) != 1 {
		t.Fatalf("a links = %+v", links)
	}
	li := links[0]
	if li.SummaryTypes != 1 || li.Hops != 2 {
		t.Fatalf("link info = %+v, want C's type relayed at hop distance 2", li)
	}

	// Hop budget 2 can reach C through B; hop budget 1 cannot, and the
	// summary says so — the plan consults nobody.
	before := a.FedStats()
	offers, err := a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 2})
	if err != nil || len(offers) != 1 {
		t.Fatalf("hop-2 import = %+v, %v", offers, err)
	}
	if asked := a.FedStats().PeersAsked - before.PeersAsked; asked != 1 {
		t.Fatalf("hop-2 peers asked = %d, want 1", asked)
	}
	before = a.FedStats()
	offers, err = a.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1})
	if err != nil || len(offers) != 0 {
		t.Fatalf("hop-1 import = %+v, %v", offers, err)
	}
	if asked := a.FedStats().PeersAsked - before.PeersAsked; asked != 0 {
		t.Fatalf("hop-1 peers asked = %d, want 0 (entry out of hop budget)", asked)
	}
}

// A gossip exchange populates routing state on both ends of the link.
func TestGossipExchangeIsBidirectional(t *testing.T) {
	ctx := context.Background()
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	mustLink(t, a, "b", b)
	mustLink(t, b, "a", a)
	if _, err := a.Export("CarRentalService", carRef(1), carProps("AUDI", 50, "USD")); err != nil {
		t.Fatal(err)
	}

	// One round from A: A pushes to B (B stores it) and stores B's reply.
	if pushed, _ := a.GossipRound(ctx, time.Second); pushed != 1 {
		t.Fatalf("pushed = %d", pushed)
	}
	if li := a.Links()[0]; li.SummaryGen == 0 {
		t.Fatalf("a's link learned nothing: %+v", li)
	}
	if li := b.Links()[0]; li.SummaryGen == 0 || li.SummaryTypes != 1 {
		t.Fatalf("b's link learned nothing from the push: %+v", li)
	}
}

func TestAcceptSummaryDropsStaleGenerations(t *testing.T) {
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	mustLink(t, a, "b", b)

	a.acceptSummary(OfferSummary{From: "B", Gen: 10,
		Entries: []SummaryEntry{{Type: "CarRentalService", Count: 2, Hops: 0}}})
	if li := a.Links()[0]; li.SummaryGen != 10 {
		t.Fatalf("gen = %d, want 10", li.SummaryGen)
	}
	// Older generation: dropped.
	a.acceptSummary(OfferSummary{From: "B", Gen: 5, Entries: nil})
	if li := a.Links()[0]; li.SummaryGen != 10 || li.SummaryTypes != 1 {
		t.Fatalf("stale generation overwrote state: %+v", li)
	}
	// Same generation: accepted (refresh).
	a.acceptSummary(OfferSummary{From: "B", Gen: 10, Entries: nil})
	if li := a.Links()[0]; li.SummaryTypes != 0 {
		t.Fatalf("equal generation not accepted: %+v", li)
	}
	// Unknown sender: ignored entirely.
	a.acceptSummary(OfferSummary{From: "nobody", Gen: 99})
	if li := a.Links()[0]; li.SummaryGen != 10 {
		t.Fatalf("summary from unlinked sender changed state: %+v", li)
	}
}

// Past the TTL a summary no longer rules a peer out: the link degrades
// to unknown coverage and full fan-out resumes.
func TestSummaryTTLFallsBackToFullFanOut(t *testing.T) {
	ctx := context.Background()
	var mu sync.Mutex
	base := time.Now()
	clock := func() time.Time {
		mu.Lock()
		defer mu.Unlock()
		return base
	}
	advance := func(d time.Duration) {
		mu.Lock()
		base = base.Add(d)
		mu.Unlock()
	}

	hub := New("hub", newCarRepo(t), withClock(clock))
	p1 := New("P1", newCarRepo(t))
	p2 := New("P2", newCarRepo(t))
	if _, err := p1.Export("CarRentalService", carRef(1), carProps("AUDI", 50, "USD")); err != nil {
		t.Fatal(err)
	}
	mustLink(t, hub, "p1", p1)
	mustLink(t, hub, "p2", p2)

	if pushed, failed := hub.GossipRound(ctx, time.Second); pushed != 2 || failed != 0 {
		t.Fatalf("gossip: pushed %d failed %d", pushed, failed)
	}

	// Fresh summaries: routed, one peer consulted.
	before := hub.FedStats()
	if _, err := hub.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1}); err != nil {
		t.Fatal(err)
	}
	if asked := hub.FedStats().PeersAsked - before.PeersAsked; asked != 1 {
		t.Fatalf("fresh peers asked = %d, want 1", asked)
	}

	// Stale summaries: both links degrade to unknown, full fan-out.
	advance(summaryTTL + time.Second)
	before = hub.FedStats()
	if _, err := hub.Import(ctx, ImportRequest{Type: "CarRentalService", HopLimit: 1}); err != nil {
		t.Fatal(err)
	}
	after := hub.FedStats()
	if asked := after.PeersAsked - before.PeersAsked; asked != 2 {
		t.Fatalf("stale peers asked = %d, want 2 (full fan-out)", asked)
	}
	if after.Full != before.Full+1 {
		t.Fatalf("full fan-outs = %d, want %d", after.Full, before.Full+1)
	}
}

func TestGossiperPeriodicRounds(t *testing.T) {
	a := New("A", newCarRepo(t))
	b := New("B", newCarRepo(t))
	mustLink(t, a, "b", b)
	if _, err := b.Export("CarRentalService", carRef(1), carProps("AUDI", 50, "USD")); err != nil {
		t.Fatal(err)
	}

	g := NewGossiper(a, 5*time.Millisecond, time.Second)
	g.Start()
	defer g.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if li := a.Links()[0]; li.SummaryGen != 0 {
			return // the background loop delivered a summary
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("gossiper delivered no summary within 2s")
}
