package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"math/rand"
	"sort"
	"time"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
)

// meshConfig parameterises the federated-mesh demo.
type meshConfig struct {
	seed    int64
	traders int
	offers  int
	imports int
}

func registerMeshFlags(fs *flag.FlagSet) *meshConfig {
	mc := &meshConfig{}
	fs.IntVar(&mc.traders, "mesh-traders", 20, "traders in the federated mesh")
	fs.IntVar(&mc.offers, "mesh-offers", 5, "offers exported per trader")
	fs.IntVar(&mc.imports, "mesh-imports", 100, "federated imports per phase")
	return mc
}

// runMesh stands up a fully linked in-process trader mesh where each
// trader holds offers of its own service type, then contrasts the two
// scatter regimes of a federated import: before gossip every import
// fans out to all peers (nobody knows who holds what), after one
// offer-summary gossip round the same imports are routed to the single
// peer whose summary covers the requested type.
func runMesh(w io.Writer, mc meshConfig) error {
	if mc.traders < 2 {
		return fmt.Errorf("-mesh-traders must be at least 2")
	}
	ctx := context.Background()
	rng := rand.New(rand.NewSource(mc.seed))

	fmt.Fprintf(w, "federated trader mesh: %d traders, full mesh (%d links), %d offers each, seed %d\n\n",
		mc.traders, mc.traders*(mc.traders-1), mc.offers, mc.seed)

	// Each trader standardises and serves its own service type: the
	// sharpest case for summary routing, since exactly one peer can
	// answer any given import.
	typeName := func(i int) string { return fmt.Sprintf("MeshService%02d", i) }
	traders := make([]*trader.Trader, mc.traders)
	for i := range traders {
		repo := typemgr.NewRepo()
		st := typemgr.ServiceType{
			Name: typeName(i),
			Attrs: []typemgr.AttrDef{
				{Name: "Price", Type: sidl.Basic(sidl.Float64)},
			},
		}
		if err := repo.Define(&st); err != nil {
			return err
		}
		traders[i] = trader.New(fmt.Sprintf("mesh-%02d", i), repo)
		for k := 0; k < mc.offers; k++ {
			target := fmt.Sprintf("tcp:10.42.%d.%d:7000", i, k+1)
			if _, err := traders[i].Export(typeName(i),
				ref.New(target, typeName(i)),
				[]sidl.Property{{Name: "Price", Value: sidl.FloatLit(10 + float64(rng.Intn(90)))}}); err != nil {
				return err
			}
		}
	}
	for i, a := range traders {
		for j, b := range traders {
			if i == j {
				continue
			}
			if err := a.AddLink(fmt.Sprintf("mesh-%02d", j), b); err != nil {
				return err
			}
		}
	}

	// One import phase: random requester asks for a random other
	// trader's type with a one-hop budget.
	phase := func() (peersPerImport float64, p99 time.Duration, found int, err error) {
		var asked uint64
		lat := make([]time.Duration, 0, mc.imports)
		for n := 0; n < mc.imports; n++ {
			from := rng.Intn(mc.traders)
			to := rng.Intn(mc.traders)
			for to == from {
				to = rng.Intn(mc.traders)
			}
			before := traders[from].FedStats()
			start := time.Now()
			offers, ierr := traders[from].Import(ctx, trader.NewImport(typeName(to), trader.Hops(1)))
			if ierr != nil {
				return 0, 0, 0, ierr
			}
			lat = append(lat, time.Since(start))
			asked += traders[from].FedStats().PeersAsked - before.PeersAsked
			if len(offers) == mc.offers {
				found++
			}
		}
		sort.Slice(lat, func(i, j int) bool { return lat[i] < lat[j] })
		return float64(asked) / float64(mc.imports), lat[len(lat)*99/100], found, nil
	}

	full, fullP99, fullFound, err := phase()
	if err != nil {
		return err
	}

	// One gossip round per trader teaches the whole mesh who holds what.
	start := time.Now()
	for _, t := range traders {
		if _, failed := t.GossipRound(ctx, time.Second); failed > 0 {
			return fmt.Errorf("gossip round reported %d failed pushes", failed)
		}
	}
	gossipTook := time.Since(start)

	routed, routedP99, routedFound, err := phase()
	if err != nil {
		return err
	}

	fmt.Fprintf(w, "%-22s %16s %12s %10s\n", "phase", "peers/import", "p99", "complete")
	fmt.Fprintf(w, "%-22s %16.1f %12s %9d%%\n", "full fan-out", full, fullP99.Round(time.Microsecond), 100*fullFound/mc.imports)
	fmt.Fprintf(w, "%-22s %16.1f %12s %9d%%\n", "summary-routed", routed, routedP99.Round(time.Microsecond), 100*routedFound/mc.imports)
	fmt.Fprintf(w, "\ngossip: %d rounds in %v; scatter narrowed %.1fx (%.1f -> %.1f peers per import)\n",
		mc.traders, gossipTook.Round(time.Millisecond), full/routed, full, routed)
	return nil
}
