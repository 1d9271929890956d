package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"cosm/internal/match"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// TestSameTypeReadWriteConcurrency: readers import one type while a
// writer exports, withdraws, replaces and suspect-marks offers of that
// same type, so every write derives a snapshot some reader may be
// walking (run it under -race; `make race` does, twenty times). Every
// result must be within Max, free of duplicate IDs and policy-ordered —
// healthy before suspect, ascending Price within each — and the final
// store must answer exactly like a linear oracle fed the same writes.
func TestSameTypeReadWriteConcurrency(t *testing.T) {
	s := New(typemgr.NewRepo(), Options{ConstraintCacheSize: 16, ImportCacheTTL: time.Hour})
	oracle := New(typemgr.NewRepo(), Options{Linear: true})
	apply := func(m *Mutation) {
		s.Apply(m)
		oracle.Apply(m)
	}
	var seed []*Offer
	for i := 0; i < 100; i++ {
		seed = append(seed, offer(fmt.Sprintf("o%d", i), "A", i%250, float64(i%40), 0))
	}
	apply(&Mutation{Op: OpExport, Offers: seed})

	const max = 5
	queries := []string{"Price < 20", "Price >= 10", "Price == 7", ""}
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				q, err := s.Prepare("A", queries[(g+i)%len(queries)], "min:Price", max, match.GradeNone)
				if err != nil {
					t.Error(err)
					return
				}
				if err := checkOrdered(s.Import(q, nil, t0), max); err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}(g)
	}

	r := rand.New(rand.NewSource(1))
	next := len(seed)
	for step := 0; step < 400; step++ {
		for reads.Load() < int64(step) && !t.Failed() {
			runtime.Gosched() // keep the readers in the thick of it
		}
		id := fmt.Sprintf("o%d", r.Intn(next))
		switch r.Intn(4) {
		case 0:
			apply(&Mutation{Op: OpExport, Offers: []*Offer{offer(fmt.Sprintf("o%d", next), "A", next%250, float64(r.Intn(40)), 0)}})
			next++
		case 1:
			apply(&Mutation{Op: OpWithdraw, IDs: []string{id}})
		case 2:
			apply(&Mutation{Op: OpReplace, IDs: []string{id}, Props: map[string]sidl.Lit{"Price": sidl.IntLit(int64(r.Intn(40)))}})
		default:
			apply(&Mutation{Op: OpSuspect, IDs: []string{id}, Suspect: r.Intn(2) == 0})
		}
	}
	stop.Store(true)
	wg.Wait()

	for _, constraint := range queries {
		for _, m := range []int{0, max} {
			a := mustImportMax(t, s, constraint, m)
			b := mustImportMax(t, oracle, constraint, m)
			if len(a) != len(b) {
				t.Fatalf("%q max %d: %d matches, oracle %d", constraint, m, len(a), len(b))
			}
			for i := range a {
				if a[i].ID != b[i].ID || a[i].Suspect != b[i].Suspect || a[i].Props["Price"] != b[i].Props["Price"] {
					t.Fatalf("%q max %d: match %d is %s, oracle %s", constraint, m, i, a[i].ID, b[i].ID)
				}
			}
		}
	}
}

func mustImportMax(t *testing.T, s *State, constraint string, max int) []Match {
	t.Helper()
	q, err := s.Prepare("A", constraint, "min:Price", max, match.GradeNone)
	if err != nil {
		t.Fatal(err)
	}
	return s.Import(q, nil, t0)
}

// checkOrdered checks one "min:Price" result against the import
// contract.
func checkOrdered(ms []Match, max int) error {
	if len(ms) > max {
		return fmt.Errorf("%d matches beyond Max %d", len(ms), max)
	}
	seen := map[string]bool{}
	for i, m := range ms {
		if seen[m.ID] {
			return fmt.Errorf("offer %s returned twice", m.ID)
		}
		seen[m.ID] = true
		if i == 0 {
			continue
		}
		prev := ms[i-1]
		if prev.Suspect && !m.Suspect {
			return fmt.Errorf("healthy %s after suspect %s", m.ID, prev.ID)
		}
		p, _ := number(prev.Props, "Price")
		x, _ := number(m.Props, "Price")
		if prev.Suspect == m.Suspect && x < p {
			return fmt.Errorf("%s (Price %v) after %s (Price %v)", m.ID, x, prev.ID, p)
		}
	}
	return nil
}
