package main

import (
	"context"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
)

// Sizes of the four workloads. BENCHMARK.json and the README quote
// them; TestBenchmarkJSON keeps the three in step.
const (
	wireOffers   = 256
	wireVariants = 8
	wireSliceOps = 2000

	matchOffers   = 20000
	matchQueries  = gridSide * gridSide // 4096
	matchSliceOps = 3 * gridSide        // 192

	churnOffers   = 2000
	churnSliceOps = 80 // 20 cycles of export, import, withdraw, import

	fedPeers     = 8
	fedOwnOffers = 12
	fedCommon    = 6
	fedSliceOps  = 700

	// verifySamples is how many queries each segment end replays
	// against the oracle.
	verifySamples = 32
)

// constructors lists the four workloads in BENCHMARK.json order. Inputs
// (offers, query tables) are functions of the seed alone and are made
// once per run, for the workload that runs only; nothing but the
// generated inputs ever reaches the system.
var constructors = []struct {
	name string
	make func(seed int64) *workload
}{
	{"import_wire", importWire},
	{"import_match", importMatch},
	{"market_churn", marketChurn},
	{"federated_import", federatedImport},
}

func workloads(seed int64) []*workload {
	out := make([]*workload, len(constructors))
	for i, c := range constructors {
		out[i] = c.make(seed)
	}
	return out
}

func workloadByName(seed int64, name string) (*workload, error) {
	for _, c := range constructors {
		if c.name == name {
			return c.make(seed), nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// canonicalQueries is the ROADMAP's canonical request in n variants:
// CarRentalService, ChargePerDay < N, cheapest first, at most five.
func canonicalQueries(n int) []query {
	qs := make([]query, n)
	for i := range qs {
		qs[i] = query{
			req: trader.NewImport("CarRentalService",
				trader.Where(fmt.Sprintf("ChargePerDay < %d", 60+5*i)),
				trader.OrderBy("min:ChargePerDay"),
				trader.Limit(5)),
			orderProp: "ChargePerDay",
		}
	}
	return qs
}

// uniformGen draws every op as an import of a uniformly chosen query.
type uniformGen struct {
	rng *rand.Rand
	n   int
}

func (g *uniformGen) next() op { return op{kind: opImport, q: g.rng.Intn(g.n)} }

// verifyAgainst replays verifySamples queries drawn from qs through
// got and the oracle and compares them ID-for-ID.
func verifyAgainst(ctx context.Context, rng *rand.Rand, qs []query,
	got func(context.Context, query) ([]*trader.Offer, error), oracle *trader.Trader) (attempted, failed int, first error) {
	for i := 0; i < verifySamples; i++ {
		q := qs[rng.Intn(len(qs))]
		attempted++
		g, err := got(ctx, q)
		if err == nil {
			var want []trader.Match
			if want, err = oracle.ImportGraded(ctx, q.req); err == nil {
				err = sameIDs(g, offersOf(want))
			}
		}
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("oracle check %q %q: %w", q.req.Type, q.req.Constraint, err)
			}
		}
	}
	return attempted, failed, first
}

// linearOracle builds the WithoutOfferIndex reference trader: same id,
// same exports in the same order, hence the same offer IDs.
func linearOracle(id string, specs []offerSpec) (*trader.Trader, error) {
	repo, err := marketRepo()
	if err != nil {
		return nil, err
	}
	tr := trader.New(id, repo, trader.WithoutOfferIndex(), trader.WithImportCacheTTL(0))
	return tr, exportAll(tr, specs)
}

// ---------------------------------------------------------------------
// import_wire: the canonical request over host-loopback TCP
// ---------------------------------------------------------------------

type wireFixture struct {
	tr      *trader.Trader
	node    *cosm.Node
	tc      *trader.Client
	specs   []offerSpec
	queries []query
	vrng    *rand.Rand
	closers []func() error
}

func importWire(seed int64) *workload {
	specs := carOffers(newRand(seed, "wire-offers", 0), wireOffers, 0)
	queries := canonicalQueries(wireVariants)
	return &workload{
		name:     "import_wire",
		sliceOps: wireSliceOps,
		newGen: func(seg int) opGen {
			return &uniformGen{rng: newRand(seed, "wire-ops", seg), n: len(queries)}
		},
		build: func(e *env, seg int) (fixture, error) {
			repo, err := marketRepo()
			if err != nil {
				return nil, err
			}
			tr := trader.New("T", repo, e.traderOpts()...)
			if err := exportAll(tr, specs); err != nil {
				return nil, err
			}
			svc, err := trader.NewService(tr)
			if err != nil {
				return nil, err
			}
			node := e.newNode()
			if err := node.Host(trader.ServiceName, svc); err != nil {
				return nil, err
			}
			if _, err := node.ListenAndServe("tcp:127.0.0.1:0"); err != nil {
				return nil, err
			}
			pool := e.newPool()
			f := &wireFixture{tr: tr, node: node, specs: specs, queries: queries,
				vrng: newRand(seed, "wire-verify", seg), closers: []func() error{pool.Close, node.Close}}
			f.tc, err = trader.DialTrader(context.Background(), pool, node.MustRefFor(trader.ServiceName))
			if err != nil {
				f.close()
				return nil, err
			}
			return f, nil
		},
	}
}

func (f *wireFixture) do(ctx context.Context, o op) (time.Time, time.Duration, error) {
	q := f.queries[o.q]
	start := time.Now()
	offers, err := f.tc.Import(ctx, q.req)
	d := time.Since(start)
	if err == nil {
		err = checkOffers(q, offers)
	}
	return start, d, err
}

func (f *wireFixture) verify(ctx context.Context) (int, int, error) {
	oracle, err := linearOracle("T", f.specs)
	if err != nil {
		return 1, 1, err
	}
	return verifyAgainst(ctx, f.vrng, f.queries, func(ctx context.Context, q query) ([]*trader.Offer, error) {
		return f.tc.Import(ctx, q.req)
	}, oracle)
}

func (f *wireFixture) close() {
	for _, c := range f.closers {
		_ = c() // tearing down a benchmark fixture; nothing to recover
	}
}

// ---------------------------------------------------------------------
// import_match: the in-process matcher on a store far larger than its caches
// ---------------------------------------------------------------------

type matchFixture struct {
	tr      *trader.Trader
	specs   []offerSpec
	queries []query
	vrng    *rand.Rand
}

// gridGen walks the 64 x 64 constraint grid as a seeded Latin square:
// every block of 64 ops uses each value of either attribute exactly
// once, and 64 blocks visit all 4096 pairs before any repeats. With
// more distinct queries than either cache holds entries nothing ever
// hits, and because a slice is a whole number of blocks every slice —
// of any seed — does the same mix of selectivities, which is what keeps
// allocations per op from wandering with the seed.
type gridGen struct {
	rng    *rand.Rand
	pa, pb []int // seeded orders of the two attributes' values
	order  []int // this block's walk through pa
	n      int
}

const gridSide = 64

func (g *gridGen) next() op {
	block, k := g.n/gridSide%gridSide, g.n%gridSide
	if k == 0 {
		g.order = g.rng.Perm(gridSide)
	}
	g.n++
	i := g.order[k]
	return op{kind: opImport, q: g.pa[i] + gridSide*g.pb[(i+block)%gridSide]}
}

func importMatch(seed int64) *workload {
	rng := newRand(seed, "match-offers", 0)
	specs := append(carOffers(rng, matchOffers/2, 0), levelOffers(rng, matchOffers/2, 0)...)
	rng.Shuffle(len(specs), func(i, j int) { specs[i], specs[j] = specs[j], specs[i] })
	// 64 x 64 distinct two-attribute range constraints; 20 of the 64
	// rows (31 %) ask the hierarchy root conformantly, the rest the flat
	// type. The table is the same for every seed (the seed orders the
	// walk through it), so the work per run does not depend on the seed.
	queries := make([]query, matchQueries)
	for j := range queries {
		a := 45 + 0.25*float64(j%gridSide)
		b := 10000 + 800*(j/gridSide)
		if j/gridSide%16 < 5 {
			queries[j] = query{
				req: trader.NewImport("L0", trader.Conformant(),
					trader.Where(fmt.Sprintf("Price < %.2f && Rating > %d", a, b)),
					trader.OrderBy("min:Price"), trader.Limit(5)),
				orderProp: "Price",
			}
		} else {
			queries[j] = query{
				req: trader.NewImport("CarRentalService", trader.MinGrade(match.GradeExact),
					trader.Where(fmt.Sprintf("ChargePerDay < %.2f && AverageMilage > %d", a, b)),
					trader.OrderBy("min:ChargePerDay"), trader.Limit(5)),
				orderProp: "ChargePerDay",
			}
		}
	}
	return &workload{
		name:     "import_match",
		sliceOps: matchSliceOps,
		newGen: func(seg int) opGen {
			rng := newRand(seed, "match-ops", seg)
			return &gridGen{rng: rng, pa: rng.Perm(gridSide), pb: rng.Perm(gridSide)}
		},
		build: func(e *env, seg int) (fixture, error) {
			repo, err := marketRepo()
			if err != nil {
				return nil, err
			}
			tr := trader.New("M", repo, e.traderOpts()...)
			if err := exportAll(tr, specs); err != nil {
				return nil, err
			}
			return &matchFixture{tr: tr, specs: specs, queries: queries, vrng: newRand(seed, "match-verify", seg)}, nil
		},
	}
}

func (f *matchFixture) do(ctx context.Context, o op) (time.Time, time.Duration, error) {
	q := f.queries[o.q]
	start := time.Now()
	ms, err := f.tr.ImportGraded(ctx, q.req)
	d := time.Since(start)
	if err == nil {
		err = checkOffers(q, offersOf(ms))
	}
	return start, d, err
}

func (f *matchFixture) verify(ctx context.Context) (int, int, error) {
	oracle, err := linearOracle("M", f.specs)
	if err != nil {
		return 1, 1, err
	}
	return verifyAgainst(ctx, f.vrng, f.queries, func(ctx context.Context, q query) ([]*trader.Offer, error) {
		return f.tr.Import(ctx, q.req)
	}, oracle)
}

func (f *matchFixture) close() {}

// ---------------------------------------------------------------------
// market_churn: writes beside reads on a durable trader
// ---------------------------------------------------------------------

// churnGen cycles export -> import -> withdraw -> import over a model
// of the live offers, named by the ordinal of their export.
type churnGen struct {
	rng   *rand.Rand
	live  []int64
	seq   int64 // ordinal of the next export
	phase int
}

func (g *churnGen) next() op {
	phase := g.phase
	g.phase = (g.phase + 1) % 4
	switch phase {
	case 0:
		g.live = append(g.live, g.seq)
		g.seq++
		return op{kind: opExport, x: int64(4000 + g.rng.Intn(10000)), y: int64(10000 + g.rng.Intn(90000))}
	case 2:
		i := g.rng.Intn(len(g.live))
		victim := g.live[i]
		g.live[i] = g.live[len(g.live)-1]
		g.live = g.live[:len(g.live)-1]
		return op{kind: opWithdraw, x: victim}
	}
	return op{kind: opImport, q: g.rng.Intn(wireVariants)}
}

type churnFixture struct {
	tr      *trader.Trader
	j       *journal.Journal
	dir     string
	ids     []string // offer ID by export ordinal
	live    int
	queries []query
	vrng    *rand.Rand
}

// churnRef is the unique service reference of the ordinal-th export;
// the pre-generated offers hold the first churnOffers of the block.
func churnRef(ordinal int64) ref.ServiceRef { return numberedRef(10, int(ordinal), "CarRentalService") }

func churnProps(charge float64, milage int64) []sidl.Property {
	return []sidl.Property{
		{Name: "CarModel", Value: sidl.EnumLit("FIAT_Uno")},
		{Name: "AverageMilage", Value: sidl.IntLit(milage)},
		{Name: "ChargePerDay", Value: sidl.FloatLit(charge)},
		{Name: "ChargeCurrency", Value: sidl.EnumLit("USD")},
	}
}

// recoverTrader rebuilds a trader from the journal in dir exactly as a
// restarted daemon does: snapshot, then replay.
func recoverTrader(dir string, jopts journal.Options, topts ...trader.Option) (*trader.Trader, *journal.Journal, error) {
	repo, err := marketRepo()
	if err != nil {
		return nil, nil, err
	}
	tr := trader.New("churn", repo, topts...)
	j, err := journal.Open(dir, jopts)
	if err != nil {
		return nil, nil, err
	}
	if snap, ok := j.Snapshot(); ok {
		err = tr.RestoreSnapshot(snap)
	}
	if err == nil {
		err = j.Replay(tr.ReplayRecord)
	}
	if err != nil {
		_ = j.Close() // the recovery error is the one to report
		return nil, nil, err
	}
	return tr, j, nil
}

// writeBaseJournal pre-generates the journal every churn segment
// recovers from: churnOffers exports, no snapshot.
func writeBaseJournal(dir string, seed int64) error {
	repo, err := marketRepo()
	if err != nil {
		return err
	}
	tr := trader.New("churn", repo)
	j, err := journal.Open(dir, journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		return err
	}
	if err := j.Start(tr.JournalSnapshot); err != nil {
		return err
	}
	tr.SetJournal(j)
	if err := exportAll(tr, carOffers(newRand(seed, "churn-offers", 0), churnOffers, 0)); err != nil {
		return err
	}
	return j.Close()
}

func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	entries, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(src, ent.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, ent.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func marketChurn(seed int64) *workload {
	queries := canonicalQueries(wireVariants)
	return &workload{
		name:     "market_churn",
		sliceOps: churnSliceOps,
		newGen: func(seg int) opGen {
			g := &churnGen{rng: newRand(seed, "churn-ops", seg), seq: churnOffers, live: make([]int64, churnOffers)}
			for i := range g.live {
				g.live[i] = int64(i)
			}
			return g
		},
		build: func(e *env, seg int) (fixture, error) {
			// Input generation, not set-up of the system: the base
			// journal is written once per run, and each segment gets its
			// own copy because running the segment appends to it.
			base := filepath.Join(e.scratch, "churn-base")
			if _, err := os.Stat(base); err != nil {
				if err := writeBaseJournal(base, seed); err != nil {
					return nil, err
				}
			}
			dir := filepath.Join(e.scratch, fmt.Sprintf("churn-seg%d", seg))
			if err := copyDir(base, dir); err != nil {
				return nil, err
			}
			tr, j, err := recoverTrader(dir, journal.Options{Fsync: journal.FsyncInterval}, e.traderOpts()...)
			if err != nil {
				return nil, err
			}
			if err := j.Start(tr.JournalSnapshot); err != nil {
				return nil, err
			}
			tr.SetJournal(j)
			f := &churnFixture{tr: tr, j: j, dir: dir, live: churnOffers, queries: queries,
				ids: make([]string, churnOffers, churnOffers+4096), vrng: newRand(seed, "churn-verify", seg)}
			for i := range f.ids {
				f.ids[i] = fmt.Sprintf("churn/o%d", i+1)
			}
			if n := tr.OfferCount(); n != churnOffers {
				f.close()
				return nil, fmt.Errorf("recovered %d offers, journal holds %d", n, churnOffers)
			}
			return f, nil
		},
	}
}

func (f *churnFixture) do(ctx context.Context, o op) (time.Time, time.Duration, error) {
	switch o.kind {
	case opExport:
		ordinal := int64(len(f.ids))
		props := churnProps(float64(o.x)/100, o.y)
		start := time.Now()
		id, err := f.tr.Export("CarRentalService", churnRef(ordinal), props)
		d := time.Since(start)
		if err == nil {
			f.ids = append(f.ids, id)
			f.live++
		}
		return start, d, err
	case opWithdraw:
		start := time.Now()
		err := f.tr.Withdraw(f.ids[o.x])
		d := time.Since(start)
		if err == nil {
			f.live--
		}
		return start, d, err
	}
	q := f.queries[o.q]
	start := time.Now()
	offers, err := f.tr.Import(ctx, q.req)
	d := time.Since(start)
	if err == nil {
		err = checkOffers(q, offers)
	}
	return start, d, err
}

// verify closes the journal, recovers it afresh into a linear-scan
// trader, and checks three things: the offer count matches the model,
// the recovered offers equal the live ones, and sampled imports agree
// with the recovered oracle ID-for-ID.
func (f *churnFixture) verify(ctx context.Context) (attempted, failed int, first error) {
	fail := func(err error) {
		failed++
		if first == nil {
			first = err
		}
	}
	attempted = 2
	if n := f.tr.OfferCount(); n != f.live {
		fail(fmt.Errorf("OfferCount %d, model has %d", n, f.live))
	}
	err := f.j.Close()
	f.j = nil
	var oracle *trader.Trader
	if err == nil {
		var oj *journal.Journal
		oracle, oj, err = recoverTrader(f.dir, journal.Options{Fsync: journal.FsyncNever},
			trader.WithoutOfferIndex(), trader.WithImportCacheTTL(0))
		if err == nil {
			err = oj.Close()
		}
	}
	if err == nil {
		err = sameRecords(f.tr.Offers(), oracle.Offers())
	}
	if err != nil {
		fail(fmt.Errorf("journal recovery: %w", err))
		return attempted, failed, first
	}
	a, fl, e := verifyAgainst(ctx, f.vrng, f.queries, func(ctx context.Context, q query) ([]*trader.Offer, error) {
		return f.tr.Import(ctx, q.req)
	}, oracle)
	if first == nil {
		first = e
	}
	return attempted + a, failed + fl, first
}

// sameRecords compares two offer sets by their durable records.
func sameRecords(a, b []*trader.Offer) error {
	if len(a) != len(b) {
		return fmt.Errorf("%d live offers, %d recovered", len(a), len(b))
	}
	sort.Slice(a, func(i, j int) bool { return a[i].ID < a[j].ID })
	sort.Slice(b, func(i, j int) bool { return b[i].ID < b[j].ID })
	for i := range a {
		ra, rb := a[i].Record(), b[i].Record()
		if ra.ID != rb.ID || ra.Type != rb.Type || ra.Ref != rb.Ref || fmt.Sprint(ra.Props) != fmt.Sprint(rb.Props) {
			return fmt.Errorf("offer %s differs after recovery", ra.ID)
		}
	}
	return nil
}

func (f *churnFixture) close() {
	if f.j != nil {
		_ = f.j.Close() // fixture teardown
	}
	_ = os.RemoveAll(f.dir) // scratch under the benchmark's own out dir
}

// ---------------------------------------------------------------------
// federated_import: one importer, eight peers, summary-routed scatter
// ---------------------------------------------------------------------

func fedOwnType(i int) string { return fmt.Sprintf("FedOwn%d", i) }

const fedCommonType = "FedCommon"

// fedRepo defines the peers' own types and the shared one; every
// trader of the federation knows all of them. Each type carries a
// marker attribute of its own name besides Price: without it the types
// would conform to each other structurally and every import would match
// every offer.
func fedRepo() (*typemgr.Repo, error) {
	repo := typemgr.NewRepo()
	names := []string{fedCommonType}
	for i := 0; i < fedPeers; i++ {
		names = append(names, fedOwnType(i))
	}
	for _, n := range names {
		st := &typemgr.ServiceType{Name: n, Attrs: []typemgr.AttrDef{
			{Name: "Price", Type: sidl.Basic(sidl.Float64)},
			{Name: n, Type: sidl.Basic(sidl.Bool)},
		}}
		if err := repo.Define(st); err != nil {
			return nil, err
		}
	}
	return repo, nil
}

// fedOffer is one peer offer in the model the output checks use.
type fedOffer struct {
	id    string
	spec  offerSpec
	price float64
}

type fedFixture struct {
	importer *trader.Trader
	peers    [][]fedOffer
	queries  []fedQuery
	seenIDs  map[string]bool
	vrng     *rand.Rand
	closers  []func() error
}

type fedQuery struct {
	query
	want int // offers the model says match
}

// alternatingGen alternates narrow (even q) and wide (odd q) imports.
type alternatingGen struct {
	rng          *rand.Rand
	narrow, wide int // table sizes; narrow queries come first
	i            int
}

func (g *alternatingGen) next() op {
	g.i++
	if g.i%2 == 1 {
		return op{kind: opImport, q: g.rng.Intn(g.narrow)}
	}
	return op{kind: opImport, q: g.narrow + g.rng.Intn(g.wide)}
}

// fedModel draws every peer's offers and derives the query table from
// them: thresholds sit just above the 3rd, 6th, ... cheapest offer of a
// type, so every query matches a known, non-zero number of offers.
func fedModel(seed int64) (peers [][]fedOffer, queries []fedQuery, narrow int) {
	rng := newRand(seed, "fed-offers", 0)
	peers = make([][]fedOffer, fedPeers)
	byType := map[string][]float64{}
	for p := range peers {
		for k := 0; k < fedOwnOffers+fedCommon; k++ {
			typ := fedOwnType(p)
			if k >= fedOwnOffers {
				typ = fedCommonType
			}
			price := 40 + float64(rng.Intn(10000))/100
			peers[p] = append(peers[p], fedOffer{
				id:    fmt.Sprintf("peer%d/o%d", p, k+1),
				price: price,
				spec: offerSpec{typ: typ,
					ref:   ref.New(fmt.Sprintf("tcp:13.0.%d.%d:7000", p, k), typ),
					props: []sidl.Property{{Name: "Price", Value: sidl.FloatLit(price)}, {Name: typ, Value: sidl.BoolLit(true)}}},
			})
			byType[typ] = append(byType[typ], price)
		}
	}
	add := func(typ string, ranks ...int) {
		prices := append([]float64(nil), byType[typ]...)
		sort.Float64s(prices)
		for _, r := range ranks {
			limit := prices[r-1] + 0.005
			want := 0
			for _, p := range prices {
				if p < limit {
					want++
				}
			}
			queries = append(queries, fedQuery{want: want, query: query{
				req: trader.NewImport(typ, trader.Where(fmt.Sprintf("Price < %.3f", limit)),
					trader.OrderBy("min:Price"), trader.Hops(1)),
				orderProp: "Price",
			}})
		}
	}
	for p := 0; p < fedPeers; p++ {
		add(fedOwnType(p), 3, 6, 9, fedOwnOffers)
	}
	narrow = len(queries)
	add(fedCommonType, 8, 16, 32, fedPeers*fedCommon)
	return peers, queries, narrow
}

func federatedImport(seed int64) *workload {
	peers, queries, narrow := fedModel(seed)
	return &workload{
		name:     "federated_import",
		sliceOps: fedSliceOps,
		newGen: func(seg int) opGen {
			return &alternatingGen{rng: newRand(seed, "fed-ops", seg), narrow: narrow, wide: len(queries) - narrow}
		},
		build: func(e *env, seg int) (fixture, error) {
			f := &fedFixture{peers: peers, queries: queries, seenIDs: map[string]bool{}, vrng: newRand(seed, "fed-verify", seg)}
			ok := false
			defer func() {
				if !ok {
					f.close()
				}
			}()
			repo, err := fedRepo()
			if err != nil {
				return nil, err
			}
			f.importer = trader.New("importer", repo, e.traderOpts()...)
			inode := e.newNode() // never listens: it lends the importer its client pool
			f.closers = append(f.closers, inode.Close)
			ctx := context.Background()
			for p, offers := range peers {
				prepo, err := fedRepo()
				if err != nil {
					return nil, err
				}
				pt := trader.New(fmt.Sprintf("peer%d", p), prepo, e.traderOpts()...)
				for _, o := range offers {
					id, err := pt.Export(o.spec.typ, o.spec.ref, o.spec.props)
					if err != nil {
						return nil, err
					}
					if id != o.id {
						return nil, fmt.Errorf("peer %d assigned offer ID %s, model expects %s", p, id, o.id)
					}
				}
				svc, err := trader.NewService(pt)
				if err != nil {
					return nil, err
				}
				node := e.newNode()
				f.closers = append(f.closers, node.Close)
				if err := node.Host(trader.ServiceName, svc); err != nil {
					return nil, err
				}
				if _, err := node.ListenAndServe(fmt.Sprintf("loop:cosmbench-%s-%d-%d", e.runID, seg, p)); err != nil {
					return nil, err
				}
				tc, err := trader.DialTrader(ctx, inode.Pool(), node.MustRefFor(trader.ServiceName))
				if err != nil {
					return nil, err
				}
				if err := f.importer.AddLink(fmt.Sprintf("peer%d", p), tc); err != nil {
					return nil, err
				}
			}
			if pushed, failed := f.importer.GossipRound(ctx, 5*time.Second); pushed != fedPeers || failed != 0 {
				return nil, fmt.Errorf("gossip round: pushed %d, failed %d", pushed, failed)
			}
			ok = true
			return f, nil
		},
	}
}

func (f *fedFixture) do(ctx context.Context, o op) (time.Time, time.Duration, error) {
	q := f.queries[o.q]
	start := time.Now()
	ms, err := f.importer.ImportGraded(ctx, q.req)
	d := time.Since(start)
	if err != nil {
		return start, d, err
	}
	if len(ms) != q.want {
		return start, d, fmt.Errorf("federated import %q %q: %d offers, model has %d", q.req.Type, q.req.Constraint, len(ms), q.want)
	}
	clear(f.seenIDs)
	for _, m := range ms {
		if f.seenIDs[m.ID] {
			return start, d, fmt.Errorf("federated import %q: duplicate offer %s", q.req.Type, m.ID)
		}
		f.seenIDs[m.ID] = true
	}
	return start, d, checkOffers(q.query, offersOf(ms))
}

// verify compares sampled federated results with the union of what
// linear-scan oracle copies of the peers match locally.
func (f *fedFixture) verify(ctx context.Context) (attempted, failed int, first error) {
	oracles := make([]*trader.Trader, len(f.peers))
	for p, offers := range f.peers {
		repo, err := fedRepo()
		if err != nil {
			return 1, 1, err
		}
		oracles[p] = trader.New(fmt.Sprintf("peer%d", p), repo, trader.WithoutOfferIndex(), trader.WithImportCacheTTL(0))
		for _, o := range offers {
			if _, err := oracles[p].Export(o.spec.typ, o.spec.ref, o.spec.props); err != nil {
				return 1, 1, err
			}
		}
	}
	for i := 0; i < verifySamples; i++ {
		q := f.queries[f.vrng.Intn(len(f.queries))]
		attempted++
		err := func() error {
			ms, err := f.importer.ImportGraded(ctx, q.req)
			if err != nil {
				return err
			}
			local := q.req
			local.HopLimit, local.Policy = 0, ""
			var want []string
			for _, o := range oracles {
				ws, err := o.ImportGraded(ctx, local)
				if err != nil {
					return err
				}
				for _, w := range ws {
					want = append(want, w.ID)
				}
			}
			got := make([]string, len(ms))
			for i, m := range ms {
				got[i] = m.ID
			}
			sort.Strings(got)
			sort.Strings(want)
			if fmt.Sprint(got) != fmt.Sprint(want) {
				return fmt.Errorf("got %v, oracle peers hold %v", got, want)
			}
			return nil
		}()
		if err != nil {
			failed++
			if first == nil {
				first = fmt.Errorf("oracle check %q %q: %w", q.req.Type, q.req.Constraint, err)
			}
		}
	}
	return attempted, failed, first
}

func (f *fedFixture) close() {
	for _, c := range f.closers {
		_ = c() // fixture teardown
	}
}
