package core

import (
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"

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
	s := New(typemgr.NewRepo(), Options{ConstraintCacheSize: 16})
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
			a := mustImportType(t, s, "A", constraint, m)
			b := mustImportType(t, oracle, "A", constraint, m)
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

// TestLargeBucketReadWriteConcurrency is the same race over a bucket of
// 8×runCap offers, so readers walk across run boundaries while the
// writer splits runs — bursts of exports — and empties and merges them
// — withdrawals of a contiguous band of prices, which sits in adjacent
// runs of the Price index. The contract checked is the one above.
func TestLargeBucketReadWriteConcurrency(t *testing.T) {
	s := New(typemgr.NewRepo(), Options{ConstraintCacheSize: 16})
	oracle := New(typemgr.NewRepo(), Options{Linear: true})
	apply := func(m *Mutation) {
		s.Apply(m)
		oracle.Apply(m)
	}
	var seed []*Offer
	for i := 0; i < 8*runCap; i++ {
		seed = append(seed, offer(fmt.Sprintf("o%d", i), "A", i%250, float64(i%200), 0))
	}
	apply(&Mutation{Op: OpExport, Offers: seed})

	const max = 5
	queries := []string{"Price < 150", "Price >= 60", "Price == 70", ""}
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
	next, step := len(seed), 0
	write := func(m *Mutation) {
		for reads.Load() < int64(step) && !t.Failed() {
			runtime.Gosched() // keep the readers in the thick of it
		}
		step++
		apply(m)
	}
	for round := 0; round < 2; round++ {
		for i := 0; i < 3*runCap; i++ {
			write(&Mutation{Op: OpExport, Offers: []*Offer{offer(fmt.Sprintf("o%d", next), "A", next%250, float64(r.Intn(200)), 0)}})
			next++
			if i%8 == 0 {
				id := fmt.Sprintf("o%d", r.Intn(next))
				write(&Mutation{Op: OpSuspect, IDs: []string{id}, Suspect: r.Intn(2) == 0})
				write(&Mutation{Op: OpReplace, IDs: []string{id}, Props: map[string]sidl.Lit{"Price": sidl.IntLit(int64(r.Intn(200)))}})
			}
		}
		for i := 0; i < 3*runCap; i++ { // seed offers of consecutive ordinals, so of consecutive Prices
			write(&Mutation{Op: OpWithdraw, IDs: []string{fmt.Sprintf("o%d", 40+200*round+i)}})
		}
	}
	stop.Store(true)
	wg.Wait()

	for _, constraint := range queries {
		for _, m := range []int{0, max} {
			a := mustImportType(t, s, "A", constraint, m)
			b := mustImportType(t, oracle, "A", constraint, m)
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

// TestBucketChurnUnderConformantReaders: readers import the root of a
// three-level hierarchy while a writer empties a subtype's bucket offer
// by offer and refills it, so a bucket of the closure disappears and
// reappears under them (run it under -race; `make race` does, twenty
// times). The untouched buckets must answer in full every time, every
// match must carry its type's grade and score, and a bounded import
// must keep the import contract.
func TestBucketChurnUnderConformantReaders(t *testing.T) {
	repo := levelRepo(t, 3)
	s := New(repo, Options{ConstraintCacheSize: 16})
	oracle := New(repo, Options{Linear: true})
	apply := func(m *Mutation) {
		s.Apply(m)
		oracle.Apply(m)
	}
	churned := make([]*Offer, 12)
	for i := range churned {
		churned[i] = offer(fmt.Sprintf("m%02d", i), "L1", 100+i, float64(i%7), 0)
	}
	var steady []*Offer
	for i := 0; i < 24; i++ {
		steady = append(steady, offer(fmt.Sprintf("s%02d", i), fmt.Sprintf("L%d", 2*(i%2)), i, float64(i%5), 0))
	}
	apply(&Mutation{Op: OpExport, Offers: steady})

	want := map[string]match.TypeMatch{
		"L0": {Grade: match.GradeExact, Score: 1},
		"L1": {Grade: match.GradeSubtype, Score: 0.9},
		"L2": {Grade: match.GradeSubtype, Score: 0.85},
	}
	var stop atomic.Bool
	var reads atomic.Int64
	var wg sync.WaitGroup
	for g := 0; g < 3; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for !stop.Load() {
				if err := checkChurnRead(s, want, len(steady)); err != nil {
					t.Error(err)
					return
				}
				reads.Add(1)
			}
		}()
	}

	for step := 0; step < 40; step++ {
		for reads.Load() < int64(step) && !t.Failed() {
			runtime.Gosched() // keep the readers in the thick of it
		}
		apply(&Mutation{Op: OpExport, Offers: churned})
		for _, o := range churned {
			apply(&Mutation{Op: OpWithdraw, IDs: []string{o.ID}})
		}
	}
	stop.Store(true)
	wg.Wait()

	apply(&Mutation{Op: OpExport, Offers: churned}) // the bucket is back
	for _, m := range []int{0, 5} {
		a := mustImportType(t, s, "L0", "", m)
		b := mustImportType(t, oracle, "L0", "", m)
		if matchIDs(a) != matchIDs(b) {
			t.Fatalf("max %d: %s, oracle %s", m, matchIDs(a), matchIDs(b))
		}
	}
}

// checkChurnRead runs the two imports of one reader round: an
// unbounded one, which must hold every steady offer, and a bounded
// ranked one, which must keep the import contract.
func checkChurnRead(s *State, want map[string]match.TypeMatch, steady int) error {
	q, err := s.Prepare("L0", "", "first", 0, match.GradeNone)
	if err != nil {
		return err
	}
	n := 0
	for _, m := range s.Import(q, nil, t0) {
		if tm := want[m.Type]; m.Grade != tm.Grade || m.Score != tm.Score {
			return fmt.Errorf("%s of %s graded (%s, %.2f), want (%s, %.2f)", m.ID, m.Type, m.Grade, m.Score, tm.Grade, tm.Score)
		}
		if m.Type != "L1" {
			n++
		}
	}
	if n != steady {
		return fmt.Errorf("an import saw %d of the %d offers outside the churned bucket", n, steady)
	}
	q, err = s.Prepare("L0", "Price < 4", "min:Price", 5, match.GradeNone)
	if err != nil {
		return err
	}
	return checkOrdered(s.Import(q, nil, t0), 5)
}

func mustImportType(t *testing.T, s *State, typ, constraint string, max int) []Match {
	t.Helper()
	q, err := s.Prepare(typ, constraint, "min:Price", max, match.GradeNone)
	if err != nil {
		t.Fatal(err)
	}
	return s.Import(q, nil, t0)
}
