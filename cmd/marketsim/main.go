// Command marketsim runs the Common Open Service Market simulation of
// sections 2.2 and 2.3: it compares the trading-only, mediation-only and
// integrated COSM regimes on time-to-market and transition costs, and
// prints the per-day series behind experiments E7 and E8.
//
// Usage:
//
//	marketsim                         # default parameters, summary table
//	marketsim -days 730 -delay 120    # two years, slower standardisation
//	marketsim -timeline               # also dump the cumulative series
//
// It simulates; it runs no live market. A live market under failure is
// checked by TestFailureResilientImportBind (module root), summary
// routing in the federated mesh by
// TestMeshSummaryRoutedImportConsultsFewPeers, and the replicated
// trader cell's invariants by the seeded simulation TestCellSim (both
// in internal/trader).
package main

import (
	"flag"
	"fmt"
	"os"

	"cosm/internal/market"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "marketsim:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("marketsim", flag.ContinueOnError)
	p := market.DefaultParams()
	fs.IntVar(&p.Days, "days", p.Days, "simulated days")
	fs.Int64Var(&p.Seed, "seed", p.Seed, "random seed")
	fs.IntVar(&p.StandardisationDelayDays, "delay", p.StandardisationDelayDays, "standardisation delay in days")
	fs.Float64Var(&p.ProviderArrivalPerDay, "providers", p.ProviderArrivalPerDay, "provider arrivals per day")
	fs.Float64Var(&p.ClientArrivalPerDay, "clients", p.ClientArrivalPerDay, "client arrivals per day")
	fs.Float64Var(&p.CostClientDev, "clientdev", p.CostClientDev, "per-client static adaptation cost")
	fs.Float64Var(&p.CostGenericUseOverhead, "overhead", p.CostGenericUseOverhead, "per-use generic-client overhead")
	timeline := fs.Bool("timeline", false, "print the per-day cumulative series")
	if err := fs.Parse(args); err != nil {
		return err
	}

	results, err := market.Compare(p)
	if err != nil {
		return err
	}

	fmt.Printf("COSM market simulation: %d days, seed %d, standardisation delay %d days\n\n",
		p.Days, p.Seed, p.StandardisationDelayDays)
	fmt.Printf("%-16s %10s %10s %10s %12s %12s %12s %12s %10s %10s\n",
		"regime", "served", "unmet", "ttfu(d)", "provider$", "clientdev$", "overhead$", "net-utility", "categories", "1st-mover")
	for _, regime := range []market.Regime{market.TradingOnly, market.MediationOnly, market.Integrated} {
		m := results[regime]
		fmt.Printf("%-16s %10d %10d %10.1f %12.1f %12.1f %12.1f %12.1f %10d %9.0f%%\n",
			m.Regime, m.UsesServed, m.UnmetDemand, m.MeanTimeToFirstUse,
			m.ProviderCost, m.ClientDevCost, m.OverheadCost, m.NetUtility, m.Categories,
			100*m.FirstMoverShare)
	}

	if n, err := market.CrossoverUses(p); err == nil {
		fmt.Printf("\nper-client crossover (section 2.3): static adaptation pays off after %.0f uses\n", n)
	}

	if *timeline {
		fmt.Printf("\n%-6s %14s %14s %14s\n", "day", "trading-net", "mediation-net", "integrated-net")
		tr := results[market.TradingOnly].Timeline
		me := results[market.MediationOnly].Timeline
		in := results[market.Integrated].Timeline
		step := len(tr) / 24
		if step == 0 {
			step = 1
		}
		for i := 0; i < len(tr); i += step {
			fmt.Printf("%-6d %14.1f %14.1f %14.1f\n",
				tr[i].Day, tr[i].NetUtility, me[i].NetUtility, in[i].NetUtility)
		}
	}
	return nil
}
