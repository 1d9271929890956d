package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"
	"time"

	"cosm/internal/match"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// levelRepo defines the hierarchy L0 <- L1 <- ... <- L(n-1) and an
// unrelated type X.
func levelRepo(t testing.TB, n int) *typemgr.Repo {
	t.Helper()
	repo := typemgr.NewRepo()
	for i := 0; i < n; i++ {
		st := &typemgr.ServiceType{Name: fmt.Sprintf("L%d", i), Attrs: []typemgr.AttrDef{{Name: "Price", Type: sidl.Basic(sidl.Float64)}}}
		if i > 0 {
			st.Super = fmt.Sprintf("L%d", i-1)
		}
		if err := repo.Define(st); err != nil {
			t.Fatal(err)
		}
	}
	if err := repo.Define(&typemgr.ServiceType{Name: "X", Attrs: []typemgr.AttrDef{{Name: "Seats", Type: sidl.Basic(sidl.Int64)}}}); err != nil {
		t.Fatal(err)
	}
	return repo
}

// tiedPrice draws a Price built for ties under the walk's order: a few
// values, each as an int or a float, zero also as -0, sometimes NaN, a
// string or absent (ok false).
func tiedPrice(r *rand.Rand) (sidl.Lit, bool) {
	switch n := r.Intn(12); {
	case n == 0:
		return sidl.Lit{}, false
	case n == 1:
		return sidl.FloatLit(math.NaN()), true
	case n == 2:
		return sidl.StringLit("1"), true
	case n == 3:
		return sidl.FloatLit(math.Copysign(0, -1)), true
	case n < 7:
		return sidl.IntLit(int64(r.Intn(4))), true
	default:
		return sidl.FloatLit([]float64{0, 1, 1.5, 2, 3}[r.Intn(5)]), true
	}
}

// TestRankedWalkMatchesLinearProperty: a bounded min:/max: import the
// ordered walk answers returns exactly what the linear oracle returns,
// where the indexed-vs-linear and top-k property tests do not reach: a
// three-level hierarchy imported conformantly (and exact-only), with
// services exported in several buckets at once; lower-ID siblings that
// match, do not, have expired or are suspect; ties as int and float and
// as -0/+0 under both policies; two hints on the ranked property; a
// more selective hint on another property, where the walk declines;
// a Serial string all but distinct per offer, asked for == (where the
// walk declines) and != (where it walks); and every Max from 1 to n+1. The ordered-lookup counter must move, so
// a walk that always declined would not pass.
func TestRankedWalkMatchesLinearProperty(t *testing.T) {
	repo := levelRepo(t, 3)
	now := t0.Add(time.Minute)
	types := []string{"L0", "L1", "L2", "X"}
	constraints := []string{
		"Price < 3",
		"Price > 1 && Price < 3",
		"Price >= 0 && Price <= 1.5",
		"Price == 0",
		"Price <= 2 && Colour == BLUE", // BLUE is rare: the walk declines
		"Price < 2 || Colour == RED",   // no hint at all
		`Price <= 2 && Serial == "s3"`, // one offer at most: the walk declines
		`Price < 3 && Serial != "s1"`,
	}
	reg := obs.NewRegistry()
	ordered := reg.CounterVec("cosm_trader_index_lookups_total", "", "kind").With("ordered")
	for seed := int64(0); seed < 60; seed++ {
		r := rand.New(rand.NewSource(seed))
		indexed := New(repo, Options{ConstraintCacheSize: 16, Metrics: reg})
		linear := New(repo, Options{ConstraintCacheSize: 16, Linear: true})
		n := 1 + r.Intn(30)
		var offers []*Offer
		for i := 0; i < n; i++ {
			o := &Offer{
				ID:   fmt.Sprintf("o%02d", i),
				Type: types[r.Intn(len(types))],
				// Few services for many offers: siblings in one bucket
				// and across buckets.
				Ref:     ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", r.Intn(1+n/3)), "S"),
				Props:   map[string]sidl.Lit{},
				Suspect: r.Intn(4) == 0,
			}
			if p, ok := tiedPrice(r); ok {
				o.Props["Price"] = p
			}
			switch r.Intn(8) {
			case 0:
				o.Props["Colour"] = sidl.EnumLit("BLUE")
			case 1, 2, 3:
				o.Props["Colour"] = sidl.EnumLit("RED")
			}
			if r.Intn(4) > 0 {
				o.Props["Serial"] = sidl.StringLit(fmt.Sprintf("s%d", r.Intn(2*n)))
			}
			switch r.Intn(5) {
			case 0:
				o.Expires = t0 // expired by now
			case 1:
				o.Expires = now.Add(time.Hour)
			}
			offers = append(offers, o)
		}
		for _, s := range []*State{indexed, linear} {
			s.Apply(&Mutation{Op: OpExport, Offers: offers})
		}
		for _, policy := range []string{"min:Price", "max:Price"} {
			for _, constraint := range constraints {
				for _, minGrade := range []match.Grade{match.GradeNone, match.GradeExact} {
					for k := 1; k <= n+1; k++ {
						got := importMax(t, indexed, "L0", constraint, policy, k, minGrade, now)
						want := importMax(t, linear, "L0", constraint, policy, k, minGrade, now)
						if err := sameMatches(got, want); err != nil {
							t.Fatalf("seed %d %q %q grade %v max %d: %v", seed, policy, constraint, minGrade, k, err)
						}
					}
				}
			}
		}
	}
	if ordered.Value() == 0 {
		t.Fatal("no import took the ordered walk")
	}
}

func importMax(t *testing.T, s *State, typ, constraint, policy string, max int, minGrade match.Grade, now time.Time) []Match {
	t.Helper()
	q, err := s.Prepare(typ, constraint, policy, max, minGrade)
	if err != nil {
		t.Fatal(err)
	}
	return s.Import(q, nil, now)
}

// sameMatches fails unless got lists the offers of want, in want's
// order, with the same grades and scores.
func sameMatches(got, want []Match) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d matches %q, want %d %q", len(got), matchIDs(got), len(want), matchIDs(want))
	}
	for i := range want {
		if g, w := got[i], want[i]; g.ID != w.ID || g.Grade != w.Grade || g.Score != w.Score {
			return fmt.Errorf("matches %q, want %q", matchIDs(got), matchIDs(want))
		}
	}
	return nil
}

func matchIDs(ms []Match) string {
	s := ""
	for _, m := range ms {
		s += m.ID + " "
	}
	return s
}

// TestRankedWalkDeclines: the walk answers a bounded min:/max: import
// of full matches with a numeric hint on the ranked property and
// nothing else; every other shape goes the unranked way, and so does
// one whose walk range is longer than the best hint's candidate list.
func TestRankedWalkDeclines(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(typemgr.NewRepo(), Options{Metrics: reg})
	for i := 0; i < 10; i++ {
		o := offer(fmt.Sprintf("o%d", i), "B", i, float64(i), 0)
		if i == 7 {
			o.Props["Colour"] = sidl.EnumLit("BLUE")
		}
		s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{o}})
	}
	lookups := reg.CounterVec("cosm_trader_index_lookups_total", "", "kind")
	for _, c := range []struct {
		constraint, policy string
		max                int
		minGrade           match.Grade
		remote             []Match
		walks              bool
	}{
		{"Price < 5", "min:Price", 2, match.GradeNone, nil, true},
		{"Price >= 3 && Price < 100", "max:Price", 1, match.GradeNone, nil, true},
		{"Price < 100 && Colour == BLUE", "min:Price", 1, match.GradeNone, nil, false}, // the eq hint is narrower
		{"Colour == RED", "min:Price", 1, match.GradeNone, nil, false},                 // no hint on Price
		{"Price < 5", "min:Price", 0, match.GradeNone, nil, false},                     // unbounded
		{"Price < 5", "first", 2, match.GradeNone, nil, false},
		{"Price < 5", "score", 2, match.GradeNone, nil, false},
		{"Price < 5", "min:Price", 2, match.GradePartial, nil, false},
		{"Price < 5", "min:Price", 2, match.GradeNone, []Match{{Offer: offer("P/o1", "B", 99, 0, 0)}}, false},
	} {
		before := lookups.With("ordered").Value()
		q, err := s.Prepare("B", c.constraint, c.policy, c.max, c.minGrade)
		if err != nil {
			t.Fatal(err)
		}
		s.Import(q, c.remote, t0)
		if walked := lookups.With("ordered").Value() > before; walked != c.walks {
			t.Errorf("%q %q max %d grade %v remote %d: walked %t, want %t", c.constraint, c.policy, c.max, c.minGrade, len(c.remote), walked, c.walks)
		}
	}
}

// TestShadowedSiblingReturnsAfterLease: an offer hidden by a sibling
// comes back once the sibling's lease ends. Service 1 is exported
// twice: o1 at 100 for a minute, o2 at 1. The dedup keeps the lower ID,
// o1, so min:Price Max 1 is o3 at 50 — until o1's lease runs out and o2
// is the answer. Both the ordered walk and the unranked path (no hint
// on Price) must see it.
func TestShadowedSiblingReturnsAfterLease(t *testing.T) {
	for _, constraint := range []string{"Price < 1000", ""} {
		s := New(typemgr.NewRepo(), Options{})
		s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{
			offer("o1", "A", 1, 100, time.Minute), offer("o2", "A", 1, 1, 0), offer("o3", "A", 3, 50, 0),
		}})
		for _, c := range []struct {
			at   time.Time
			want string
		}{{t0, "o3 "}, {t0.Add(2 * time.Minute), "o2 "}} {
			if got := matchIDs(importMax(t, s, "A", constraint, "min:Price", 1, match.GradeNone, c.at)); got != c.want {
				t.Errorf("%q at %v: %q, want %q", constraint, c.at.Sub(t0), got, c.want)
			}
		}
	}
}

// TestWalkedImportSeesAnyConsultedBucket: a walked import sees a write
// to any bucket it consults — also one it had nothing to walk in,
// because no offer lay in its range (L1) or none carries the ranked
// property at all (L2).
func TestWalkedImportSeesAnyConsultedBucket(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(levelRepo(t, 3), Options{Metrics: reg})
	ordered := reg.CounterVec("cosm_trader_index_lookups_total", "", "kind").With("ordered")
	export := func(id, typ string, host int, props map[string]sidl.Lit) {
		s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{{ID: id, Type: typ, Ref: ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", host), typ), Props: props}}})
	}
	price := func(x float64) map[string]sidl.Lit { return map[string]sidl.Lit{"Price": sidl.FloatLit(x)} }
	export("a1", "L0", 1, price(10))
	export("a2", "L0", 2, price(20))
	export("b1", "L1", 3, price(500))
	export("c1", "L2", 4, map[string]sidl.Lit{"Seats": sidl.IntLit(2)})
	imp := func() string {
		return matchIDs(importMax(t, s, "L0", "Price < 100", "min:Price", 2, match.GradeNone, t0))
	}
	if got := imp(); got != "a1 a2 " || ordered.Value() != 3 {
		t.Fatalf("first import %q, %d ordered lookups; want a1 a2 and 3", got, ordered.Value())
	}
	export("b2", "L1", 5, price(5))
	if got := imp(); got != "b2 a1 " {
		t.Fatalf("after a write to L1: %q, want b2 a1", got)
	}
	export("c2", "L2", 6, price(1))
	if got := imp(); got != "c2 b2 " {
		t.Fatalf("after a write to L2: %q, want c2 b2", got)
	}
}

// TestWalkSiblingsThroughDerive: the walk's sibling skip against the
// linear oracle, step by step, on snapshots that the writes derive
// after the first step's import built them. A lower-ID sibling exported
// after the offer it shadows ("o10" sorts before "o9") hides it;
// withdrawn, it lets it through; exported again, it hides it again; and
// a lower-ID sibling in another consulted bucket hides an offer whose
// own bucket counts no sibling.
func TestWalkSiblingsThroughDerive(t *testing.T) {
	repo := levelRepo(t, 2)
	reg := obs.NewRegistry()
	ordered := reg.CounterVec("cosm_trader_index_lookups_total", "", "kind").With("ordered")
	indexed := New(repo, Options{Metrics: reg})
	linear := New(repo, Options{Linear: true})
	export := func(id, typ string, host int, price float64) func() *Mutation {
		return func() *Mutation {
			return &Mutation{Op: OpExport, Offers: []*Offer{{ID: id, Type: typ,
				Ref: ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", host), "S"), Props: map[string]sidl.Lit{"Price": sidl.FloatLit(price)}}}}
		}
	}
	withdraw := func() *Mutation { return &Mutation{Op: OpWithdraw, IDs: []string{"o10"}} }
	for _, c := range []struct {
		step   string
		m      func() *Mutation
		want   string // min:Price, Max 2
		l0, l1 int    // the buckets' sibling counts, -1 for no bucket
	}{
		{"o9 alone", export("o9", "L0", 1, 1), "o9 ", 0, -1},
		{"o5 of another service", export("o5", "L0", 2, 50), "o9 o5 ", 0, -1},
		{"lower-ID o10 exported after o9", export("o10", "L0", 1, 100), "o5 o10 ", 1, -1},
		{"o10 withdrawn", withdraw, "o9 o5 ", 0, -1},
		{"o10 exported again", export("o10", "L0", 1, 100), "o5 o10 ", 1, -1},
		{"o10 withdrawn again", withdraw, "o9 o5 ", 0, -1},
		{"lower-ID o1 in another bucket", export("o1", "L1", 1, 100), "o5 o1 ", 0, 0},
	} {
		for _, s := range []*State{indexed, linear} {
			s.Apply(c.m())
		}
		for _, policy := range []string{"min:Price", "max:Price"} {
			for k := 1; k <= 4; k++ {
				got := importMax(t, indexed, "L0", "Price < 1000", policy, k, match.GradeNone, t0)
				want := importMax(t, linear, "L0", "Price < 1000", policy, k, match.GradeNone, t0)
				if err := sameMatches(got, want); err != nil {
					t.Fatalf("%s: %s max %d: %v", c.step, policy, k, err)
				}
			}
		}
		if got := matchIDs(importMax(t, indexed, "L0", "Price < 1000", "min:Price", 2, match.GradeNone, t0)); got != c.want {
			t.Fatalf("%s: %q, want %q", c.step, got, c.want)
		}
		for typ, want := range map[string]int{"L0": c.l0, "L1": c.l1} {
			got := -1
			if snap, ok := indexed.snapshot(typ); ok {
				got = snap.sibs
			}
			if got != want {
				t.Fatalf("%s: %s counts %d siblings, want %d", c.step, typ, got, want)
			}
		}
	}
	if ordered.Value() == 0 {
		t.Fatal("no import took the ordered walk")
	}
}

// TestOrderedImportBytes pins what one uncached bounded min: import over
// a 10 000-offer bucket, about a fifth of it in the constraint's range,
// allocates: the walk stops at Max, so the bytes do not grow with the
// matches (the unranked path allocates a match per survivor and a dedup
// map, ≈136 KB here). An allocation count cannot pin this: that path
// makes few allocations, but large ones.
func TestOrderedImportBytes(t *testing.T) {
	s := New(typemgr.NewRepo(), Options{})
	r := rand.New(rand.NewSource(1))
	var offers []*Offer
	for i, p := range r.Perm(10000) {
		offers = append(offers, offer(fmt.Sprintf("o%05d", i), "A", i, float64(p), 0))
	}
	s.Apply(&Mutation{Op: OpExport, Offers: offers})
	q, err := s.Prepare("A", "Price < 2000", "min:Price", 5, match.GradeNone)
	if err != nil {
		t.Fatal(err)
	}
	if got := s.Import(q, nil, t0); len(got) != 5 || got[0].Props["Price"] != sidl.FloatLit(0) {
		t.Fatalf("import = %q", matchIDs(got))
	}
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Import(q, nil, t0)
		}
	})
	t.Logf("%d B, %d allocs per import", res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got > 4096 {
		t.Fatalf("one bounded min: import allocates %d B, want at most 4096", got)
	}
}

// BenchmarkRankedWalk times the ordered walk of import_match's shape —
// a bounded min:Price import under a two-attribute range constraint —
// on 20 000 offers, prepared beforehand so only Import is timed. Of the
// flat type it imports exactly, of the five-level hierarchy
// conformantly, the offers spread over its levels. With no siblings
// the walk searches no bucket of the offer it keeps, and only the other
// buckets of the closure; with every eighth offer a second offer of the
// service exported five before it, in the same bucket, it searches that
// bucket too. cosmbench's import_match has no siblings.
func BenchmarkRankedWalk(b *testing.B) {
	const n = 20000
	for _, shape := range []struct {
		name, typ string
		minGrade  match.Grade
	}{{"flat", "A", match.GradeExact}, {"closure", "L0", match.GradeNone}} {
		for _, sibs := range []struct {
			name  string
			every int // every every-th offer is a sibling; 0: none
		}{{"no-siblings", 0}, {"siblings-1in8", 8}} {
			b.Run(shape.name+"/"+sibs.name, func(b *testing.B) {
				reg := obs.NewRegistry()
				ordered := reg.CounterVec("cosm_trader_index_lookups_total", "", "kind").With("ordered")
				s := New(levelRepo(b, 5), Options{Metrics: reg})
				r := rand.New(rand.NewSource(1))
				offers := make([]*Offer, n)
				for i := range offers {
					typ := shape.typ
					if typ == "L0" {
						typ = fmt.Sprintf("L%d", i%5)
					}
					host := i
					if sibs.every > 0 && i%sibs.every == 0 && i >= 5 {
						host = i - 5
					}
					offers[i] = &Offer{ID: fmt.Sprintf("o%05d", i), Type: typ,
						Ref: ref.New(fmt.Sprintf("tcp:10.%d.%d.%d:7000", host>>16, host>>8&255, host&255), "S"),
						Props: map[string]sidl.Lit{
							"Price":  sidl.FloatLit(40 + 60*r.Float64()),
							"Rating": sidl.IntLit(int64(10000 + r.Intn(50000))),
						}}
				}
				s.Apply(&Mutation{Op: OpExport, Offers: offers})
				qs := make([]Query, 64)
				for i := range qs {
					var err error
					constraint := fmt.Sprintf("Price < %.2f && Rating > %d", 45+0.25*float64(i), 10000+200*i)
					if qs[i], err = s.Prepare(shape.typ, constraint, "min:Price", 5, shape.minGrade); err != nil {
						b.Fatal(err)
					}
					if before := ordered.Value(); len(s.Import(qs[i], nil, t0)) != 5 || ordered.Value() == before {
						b.Fatalf("%q: not five offers by the ordered walk", constraint)
					}
				}
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Import(qs[i%len(qs)], nil, t0)
				}
			})
		}
	}
}
