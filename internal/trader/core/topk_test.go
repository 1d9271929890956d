package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// randPrice draws a Price property built for ties: four values, each as
// an int or a float, sometimes NaN, sometimes absent (ok false).
func randPrice(r *rand.Rand) (sidl.Lit, bool) {
	switch n := r.Intn(10); {
	case n == 0:
		return sidl.Lit{}, false
	case n == 1:
		return sidl.FloatLit(math.NaN()), true
	case n < 5:
		return sidl.IntLit(int64(r.Intn(4))), true
	default:
		return sidl.FloatLit(float64(r.Intn(4))), true
	}
}

// TestTopKMatchesFullOrderProperty: Import with Max = k returns exactly
// the first k of the same Import with Max = 0 — the bounded heap picks
// the same offers in the same order as the full stable sort and the
// suspect partition, through ties on the ranked key, offers lacking it
// (or holding NaN), suspect offers, local offers sharing a ServiceRef,
// remote matches duplicating local refs or IDs, partial grades, and
// every deterministic policy — cases the indexed≡linear test in package
// trader, which also pits the heap against the full sort, draws rarely
// or never.
func TestTopKMatchesFullOrderProperty(t *testing.T) {
	policies := []string{"", "first", "min:Price", "max:Price", "score"}
	constraints := []string{"", "Price < 3", "Price < 2 && Colour == RED", "Colour == RED && Price >= 1"}
	for seed := int64(0); seed < 150; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New(typemgr.NewRepo(), Options{})
		n := 1 + r.Intn(30)
		var local []*Offer
		for i := 0; i < n; i++ {
			host := i
			if i > 0 && r.Intn(5) == 0 {
				host = r.Intn(i) // a second offer of an already exported service
			}
			o := &Offer{ID: fmt.Sprintf("o%02d", i), Type: "A", Ref: ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", host), "A"),
				Props: map[string]sidl.Lit{}, Suspect: r.Intn(4) == 0}
			if p, ok := randPrice(r); ok {
				o.Props["Price"] = p
			}
			if r.Intn(2) == 0 {
				o.Props["Colour"] = sidl.EnumLit("RED")
			}
			local = append(local, o)
		}
		s.Apply(&Mutation{Op: OpExport, Offers: local})

		var remote []Match
		for i := r.Intn(6); i > 0; i-- {
			o := &Offer{ID: fmt.Sprintf("P/o%d", i), Type: "A", Ref: ref.New(fmt.Sprintf("tcp:10.9.0.%d:7000", i), "A"),
				Props: map[string]sidl.Lit{}, Suspect: r.Intn(4) == 0}
			switch r.Intn(3) {
			case 0: // the same service a local offer exports: shadowed
				o.Ref = local[r.Intn(n)].Ref
			case 1: // an ID a local offer has too: only position tells them apart
				o.ID = local[r.Intn(n)].ID
			}
			if p, ok := randPrice(r); ok {
				o.Props["Price"] = p
			}
			grades := []match.Grade{match.GradeExact, match.GradeSubtype, match.GradePartial}
			scores := []float64{match.ScoreExact, match.ScoreStructural, 0.2}
			remote = append(remote, Match{Offer: o, Grade: grades[r.Intn(3)], Score: scores[r.Intn(3)]})
		}

		for _, policy := range policies {
			constraint := constraints[r.Intn(len(constraints))]
			minGrade := []match.Grade{match.GradeNone, match.GradePartial}[r.Intn(2)]
			imp := func(max int) []Match {
				q, err := s.Prepare("A", constraint, policy, max, minGrade)
				if err != nil {
					t.Fatal(err)
				}
				return s.Import(q, remote, t0)
			}
			full := imp(0)
			for k := 1; k <= len(full)+1; k++ {
				got, want := imp(k), full[:min(k, len(full))]
				if len(got) != len(want) {
					t.Fatalf("seed %d policy %q %q max %d: %d matches, want %d", seed, policy, constraint, k, len(got), len(want))
				}
				for i := range want {
					g, w := got[i], want[i]
					if g.Offer != w.Offer || g.Grade != w.Grade || g.Score != w.Score {
						t.Fatalf("seed %d policy %q %q max %d: match %d is %s (%s), want %s (%s)",
							seed, policy, constraint, k, i, g.ID, g.Ref, w.ID, w.Ref)
					}
				}
			}
		}
	}
}
