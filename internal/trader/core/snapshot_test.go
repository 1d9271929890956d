package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// snapshot pins serviceType's snapshot the way an import's phase 1
// does, false when the type has no stored offer.
func (s *State) snapshot(serviceType string) (*typeSnapshot, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	b := s.types[serviceType]
	if b == nil {
		return nil, false
	}
	return s.pin(serviceType, b), true
}

// sameSnapshot fails unless derived — a snapshot some chain of writes
// derived — holds what a fresh build of the bucket holds: the same
// sibling count, the offer list, and the index table entry for entry —
// each entry's key, count, numeric index and posting list — since the
// table's key order and the lists' (Ref, ID) and (value, ID) orders are
// part of the contract (a walk in policy order breaks ties by the
// latter). The lists are compared flattened: where a chain of writes
// split and merged runs legitimately differs from a build, which packs
// them full. Every list of either snapshot, the table included, must
// keep the run invariants (see checkRuns), no table entry may be empty,
// and prop must find the property entry of every entry's property.
func sameSnapshot(t *testing.T, step string, derived, built *typeSnapshot) {
	t.Helper()
	for _, snap := range []*typeSnapshot{derived, built} {
		checkRuns(t, step+": offers", snap.offers)
		checkRuns(t, step+": index table", snap.index)
		table := snap.index.all()
		for i, e := range table {
			// Each entry's label is formatted only when it fails: a
			// Sprintf per entry per step was most of the test's time.
			if fault := runsFault(e.list); fault != "" {
				t.Fatalf("%s: posting list %v: %s", step, e.indexKey, fault)
			}
			if fault := runsFault(e.num); fault != "" {
				t.Fatalf("%s: numeric index %v: %s", step, e.indexKey, fault)
			}
			if e.empty() {
				t.Fatalf("%s: empty table entry %v", step, e.indexKey)
			}
			if i > 0 && table[i-1].compare(&e.indexKey) >= 0 {
				t.Fatalf("%s: table entries %v, %v out of key order", step, table[i-1].indexKey, e.indexKey)
			}
			if p := snap.prop(e.prop); p == nil || p.indexKey != propKey(e.prop) {
				t.Fatalf("%s: entry %v: prop does not find its property's entry", step, e.indexKey)
			}
			for j := 1; j < e.num.Len(); j++ {
				if byValID(e.num.At(j-1), e.num.At(j)) >= 0 {
					t.Fatalf("%s: numeric index %q is not in (value, ID) order at %d", step, e.prop, j)
				}
			}
		}
	}
	if d, b := derived.offers.all(), built.offers.all(); !slices.Equal(d, b) {
		t.Fatalf("%s: offers %q, built %q", step, ids(d), ids(b))
	}
	if derived.sibs != built.sibs {
		t.Fatalf("%s: %d siblings, built %d", step, derived.sibs, built.sibs)
	}
	d, b := derived.index.all(), built.index.all()
	if len(d) != len(b) {
		t.Fatalf("%s: %d table entries, built %d", step, len(d), len(b))
	}
	for i := range b {
		switch de, be := d[i], b[i]; {
		case de.indexKey != be.indexKey:
			t.Fatalf("%s: table entry %d is %v, built %v", step, i, de.indexKey, be.indexKey)
		case de.n != be.n:
			t.Fatalf("%s: property %q counts %d offers, built %d", step, be.prop, de.n, be.n)
		case !slices.Equal(de.list.all(), be.list.all()):
			t.Fatalf("%s: posting list %v = %q, built %q", step, be.indexKey, ids(de.list.all()), ids(be.list.all()))
		case !slices.Equal(de.num.all(), be.num.all()):
			t.Fatalf("%s: numeric index %q differs from the built one", step, be.prop)
		}
	}
}

// TestDerivedSnapshotEqualsRebuilt drives a random Apply sequence —
// export batches across two types, withdraw, withdraw_all, replace,
// suspect, purge, and an export re-applied under an already stored ID,
// half the time with another service's Ref — reading every type before
// each step, so every write derives. Most offers carry a Serial string
// that is all but distinct per offer, so the index table holds about an
// entry per offer and a write inserts and drops entries, not only
// counts. Refs come from a small pool, so the
// writes make and break siblings. After each step every derived
// snapshot must equal a fresh build of its bucket; after Clear nothing
// is left to read.
func TestDerivedSnapshotEqualsRebuilt(t *testing.T) {
	derivedEqualsRebuilt(t, 40, 60, 0)
}

// TestDerivedLargeSnapshotEqualsRebuilt is TestDerivedSnapshotEqualsRebuilt
// over a type preloaded with 6×runCap offers, a quarter of them leased,
// so its lists span several runs: exports split them, withdrawals and
// purges empty and merge them, and every derived snapshot must still
// equal a fresh build entry for entry.
func TestDerivedLargeSnapshotEqualsRebuilt(t *testing.T) {
	if spine := derivedEqualsRebuilt(t, 4, 300, 6*runCap); spine < 4 {
		t.Fatalf("the offer list spanned at most %d runs; want at least 4", spine)
	}
}

// derivedEqualsRebuilt runs the Apply sequences of the two tests above
// after preloading type A with the given number of offers, and returns
// the most runs any derived offer list spanned. It draws each offer's
// Ref from 16 services plus one for every two preloaded offers, and
// fails unless some derived snapshot counted a sibling and some derived
// snapshot with offers counted none.
func derivedEqualsRebuilt(t *testing.T, seeds int64, steps, preload int) int {
	t.Helper()
	types := []string{"A", "B"}
	widest, withSibs, withoutSibs := 0, false, false
	services := 16 + preload/2
	service := func(r *rand.Rand) ref.ServiceRef {
		return ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", r.Intn(services)), "A")
	}
	for seed := int64(0); seed < seeds; seed++ {
		r := rand.New(rand.NewSource(seed))
		s := New(typemgr.NewRepo(), Options{})
		var stored []*Offer // every offer ever exported, by ordinal
		props := func() map[string]sidl.Lit {
			p := map[string]sidl.Lit{}
			if x, ok := randPrice(r); ok {
				p["Price"] = x
			}
			if r.Intn(3) > 0 {
				p["Colour"] = sidl.EnumLit([]string{"RED", "BLUE"}[r.Intn(2)])
			}
			if r.Intn(3) == 0 {
				p["Seats"] = sidl.IntLit(int64(2 + r.Intn(3)))
			}
			if r.Intn(4) > 0 {
				p["Serial"] = sidl.StringLit(fmt.Sprintf("s%d", r.Intn(4*len(stored)+4)))
			}
			return p
		}
		someIDs := func() []string {
			var out []string
			for i := 1 + r.Intn(3); i > 0 && len(stored) > 0; i-- {
				out = append(out, stored[r.Intn(len(stored))].ID)
			}
			return out
		}
		newOffer := func(typ string) *Offer {
			o := &Offer{ID: fmt.Sprintf("o%d", len(stored)), Type: typ, Props: props(), Ref: service(r)}
			if r.Intn(4) == 0 {
				o.Expires = t0.Add(time.Duration(r.Intn(60)) * time.Second)
			}
			stored = append(stored, o)
			return o
		}
		if preload > 0 {
			m := &Mutation{Op: OpExport}
			for range preload {
				m.Offers = append(m.Offers, newOffer("A"))
			}
			s.Apply(m)
		}
		for step := 0; step < steps; step++ {
			read := map[string]bool{}
			for _, typ := range types {
				_, read[typ] = s.snapshot(typ)
			}
			var m *Mutation
			switch k := r.Intn(8); {
			case k < 3 || len(stored) == 0:
				m = &Mutation{Op: OpExport}
				for i := 1 + r.Intn(4); i > 0; i-- {
					m.Offers = append(m.Offers, newOffer(types[r.Intn(2)]))
				}
			case k == 3:
				m = &Mutation{Op: []string{OpWithdraw, OpWithdrawAll}[r.Intn(2)], IDs: someIDs()}
			case k == 4:
				m = &Mutation{Op: OpReplace, IDs: someIDs(), Props: props()}
			case k == 5:
				m = &Mutation{Op: OpSuspect, IDs: someIDs(), Suspect: r.Intn(2) == 0}
			case k == 6:
				m = &Mutation{Op: OpPurge, At: t0.Add(time.Duration(r.Intn(60)) * time.Second)}
			default: // a replayed export: the ID is stored, the offer fresh
				o := *stored[r.Intn(len(stored))]
				o.Props = props()
				if r.Intn(2) == 0 {
					o.Ref = service(r)
				}
				m = &Mutation{Op: OpExport, Offers: []*Offer{&o}}
			}
			s.Apply(m)
			for _, typ := range types {
				b := s.types[typ]
				if b == nil {
					continue
				}
				derived := b.snap.Load()
				if derived == nil {
					if read[typ] {
						t.Fatalf("seed %d step %d %s: type %s was read, yet has no snapshot", seed, step, m.Op, typ)
					}
					continue // stored by this step: nobody has read it yet
				}
				sameSnapshot(t, fmt.Sprintf("seed %d step %d %s type %s", seed, step, m.Op, typ), derived, s.buildSnapshot(typ))
				widest = max(widest, len(derived.offers.spine))
				withSibs = withSibs || derived.sibs > 0
				withoutSibs = withoutSibs || derived.sibs == 0 && derived.offers.Len() > 0
			}
		}
		s.Clear()
		for _, typ := range types {
			if _, ok := s.snapshot(typ); ok {
				t.Fatalf("seed %d: type %s readable after Clear", seed, typ)
			}
		}
	}
	if !withSibs || !withoutSibs {
		t.Fatalf("derived snapshots with siblings: %t, with offers and none: %t; want both", withSibs, withoutSibs)
	}
	return widest
}

// TestSnapshotsBuildOnlyOnRead: a store nobody reads — journal recovery,
// a fresh follower — builds no snapshot however much it is written; the
// first read builds one, and writes after it derive, never rebuild.
func TestSnapshotsBuildOnlyOnRead(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(typemgr.NewRepo(), Options{Metrics: reg})
	builds := reg.Counter("cosm_trader_index_snapshot_rebuilds_total", "")
	for i := 0; i < 50; i++ {
		s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{offer(fmt.Sprintf("o%d", i), "A", i, float64(i), 0)}})
	}
	s.Apply(&Mutation{Op: OpWithdraw, IDs: []string{"o3"}})
	if b := s.types["A"]; b.snap.Load() != nil || builds.Value() != 0 {
		t.Fatalf("unread type: snapshot %v, %d builds", b.snap.Load(), builds.Value())
	}
	if ms := mustImport(t, s, "A", "Price < 10", "min:Price", nil, t0); len(ms) != 9 || builds.Value() != 1 {
		t.Fatalf("first read: %d matches, %d builds; want 9 and 1", len(ms), builds.Value())
	}
	for i := 50; i < 60; i++ {
		s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{offer(fmt.Sprintf("o%d", i), "A", i, float64(i-55), 0)}})
		s.Apply(&Mutation{Op: OpSuspect, IDs: []string{"o1"}, Suspect: i%2 == 0})
		if ms := mustImport(t, s, "A", "Price < 10", "min:Price", nil, t0); len(ms) != 9+i-49 {
			t.Fatalf("after export %d: %d matches", i, len(ms))
		}
	}
	if builds.Value() != 1 {
		t.Fatalf("%d snapshot builds; writes after the first read must derive", builds.Value())
	}
}

// TestNumericEqualityFromRangeIndex pins "prop == number" now that
// numbers have no equality posting list: the numeric index's range
// [first >= x, first > x) answers it, so -0 and +0 are one value (as
// cmpOrdered decides), an int and a float of one value are one value,
// and NaN equals nothing — indexed and linear alike.
func TestNumericEqualityFromRangeIndex(t *testing.T) {
	indexed := New(typemgr.NewRepo(), Options{})
	linear := New(typemgr.NewRepo(), Options{Linear: true})
	price := map[string]sidl.Lit{
		"neg": sidl.FloatLit(math.Copysign(0, -1)), "pos": sidl.FloatLit(0), "int": sidl.IntLit(0),
		"one": sidl.FloatLit(1), "nan": sidl.FloatLit(math.NaN()), "str": sidl.StringLit("0"),
	}
	var offers []*Offer
	for id, lit := range price {
		offers = append(offers, &Offer{ID: id, Type: "A", Ref: ref.New("tcp:10.0.0.1:7000/"+id, "A"),
			Props: map[string]sidl.Lit{"ChargePerDay": lit}})
	}
	for _, s := range []*State{indexed, linear} {
		s.Apply(&Mutation{Op: OpExport, Offers: offers})
	}
	for constraint, want := range map[string]string{
		"ChargePerDay == 0":   "int neg pos ",
		"ChargePerDay == -0":  "int neg pos ",
		"0.0 == ChargePerDay": "int neg pos ",
		"ChargePerDay == 1":   "one ",
		"ChargePerDay == 2":   "",
		"ChargePerDay <= 0":   "int neg pos ",
	} {
		for name, s := range map[string]*State{"indexed": indexed, "linear": linear} {
			var got string
			for _, m := range mustImport(t, s, "A", constraint, "", nil, t0) {
				got += m.ID + " "
			}
			if got != want {
				t.Errorf("%s %q = %q, want %q", name, constraint, got, want)
			}
		}
	}
	snap, _ := indexed.snapshot("A")
	if _, kind := snap.candidates(MustCompile("ChargePerDay == 0")); kind != "range" {
		t.Fatalf("numeric equality answered by %q, want the range index", kind)
	}
	for _, e := range snap.index.all() {
		if e.kind == cvMissing || e.indexKey == (indexKey{prop: "ChargePerDay", kind: cvStr, str: "0"}) {
			continue
		}
		t.Fatalf("numeric value in the index table: %v", e.indexKey)
	}
}

// TestDerivedWriteBytes pins what one Export and one Withdraw of an
// offer cost together in a read 10 000-offer bucket, whose offers all
// sit in the Price index and in one Colour posting list: each write
// copies the spine and one run of the offer list, of both of those and
// of the index table. Copying the three whole lists per write allocates
// ≈660 KB here, and cloning a map per index kind per write took 8 more
// allocations.
func TestDerivedWriteBytes(t *testing.T) {
	derivedWriteCost(t, false, 19)
}

// TestDerivedWriteBytesDistinctValues is TestDerivedWriteBytes with a
// string property whose value is distinct per offer, so the index table
// holds 10 000 more entries: a write copies the table's spine and the
// runs of the entries it changes, not the table, so the cost stays
// bounded as before. Cloning a map keyed by every value per write
// allocated ≈2.6 MB here.
func TestDerivedWriteBytesDistinctValues(t *testing.T) {
	derivedWriteCost(t, true, 23)
}

// derivedWriteCost fails unless one Export and one Withdraw in a read
// bucket of 10 000 B offers, each with a distinct Serial string when
// serials is set, allocate at most 128 KB, in exactly allocs
// allocations.
func derivedWriteCost(t *testing.T, serials bool, allocs int64) {
	t.Helper()
	s, export, withdraw := readBucket(t, 10000, serials)
	res := testing.Benchmark(func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.Apply(export)
			s.Apply(withdraw)
		}
	})
	t.Logf("%d B, %d allocs per Export and Withdraw", res.AllocedBytesPerOp(), res.AllocsPerOp())
	if got := res.AllocedBytesPerOp(); got > 128<<10 {
		t.Fatalf("one Export and Withdraw allocate %d B, want at most %d", got, 128<<10)
	}
	if got := res.AllocsPerOp(); got != allocs {
		t.Fatalf("one Export and Withdraw allocate %d times, want %d", got, allocs)
	}
	if b := s.types["B"]; b.snap.Load() == nil || b.snap.Load().offers.Len() != 10000 {
		t.Fatal("the bucket's snapshot was not derived")
	}
}

// readBucket returns a store holding n read B offers at distinct Prices,
// each with a distinct Serial string when serials is set, and the
// Export and the Withdraw of one more offer, priced mid-range.
func readBucket(tb testing.TB, n int, serials bool) (s *State, export, withdraw *Mutation) {
	tb.Helper()
	s = New(typemgr.NewRepo(), Options{})
	r := rand.New(rand.NewSource(1))
	mk := func(id string, host int, price float64) *Offer {
		o := offer(id, "B", host, price, 0)
		if serials {
			o.Props["Serial"] = sidl.StringLit("s" + id)
		}
		return o
	}
	var offers []*Offer
	for i, p := range r.Perm(n) {
		offers = append(offers, mk(fmt.Sprintf("o%05d", i), i, float64(p)))
	}
	s.Apply(&Mutation{Op: OpExport, Offers: offers})
	q, err := s.Prepare("B", "Price < 10 && Colour == RED", "", 0, 0)
	if err != nil {
		tb.Fatal(err)
	}
	if ms := s.Import(q, nil, t0); len(ms) != 10 {
		tb.Fatalf("import = %q, want 10 offers", matchIDs(ms))
	}
	id := fmt.Sprintf("o%05dx", n/2-1)
	export = &Mutation{Op: OpExport, Offers: []*Offer{mk(id, n/2-1, float64(n/2)-0.5)}}
	return s, export, &Mutation{Op: OpWithdraw, IDs: []string{id}}
}

// BenchmarkDerive times one Export and one Withdraw in a read bucket of
// 2 000 and of 20 000 offers, without and with a string property whose
// value is distinct per offer: what a write costs as the bucket and the
// number of distinct values grow.
func BenchmarkDerive(b *testing.B) {
	for _, n := range []int{2000, 20000} {
		for _, serials := range []bool{false, true} {
			b.Run(fmt.Sprintf("offers=%d/distinct=%t", n, serials), func(b *testing.B) {
				s, export, withdraw := readBucket(b, n, serials)
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					s.Apply(export)
					s.Apply(withdraw)
				}
			})
		}
	}
}

// randomIndexKey draws a key from a small domain, so that a table of a
// few hundred keys holds most of it and a draw hits present and absent
// keys alike: one of eight properties, and its property entry or a
// string, enum or boolean value.
func randomIndexKey(r *rand.Rand) indexKey {
	k := indexKey{prop: string(rune('a' + r.Intn(8)))}
	switch r.Intn(4) {
	case 1:
		k.kind, k.str = cvStr, fmt.Sprint(r.Intn(20))
	case 2:
		k.kind, k.str = cvSym, fmt.Sprint(r.Intn(20))
	case 3:
		k.kind, k.b = cvBool, r.Intn(2) == 1
	}
	return k
}

// linearLookup is lookup by a scan of every entry of the table, given
// as one slice.
func linearLookup(entries []indexEntry, k indexKey) (int, indexEntry, bool) {
	for i, e := range entries {
		if e.compare(&k) >= 0 {
			if e.indexKey == k {
				return i, e, true
			}
			return i, indexEntry{indexKey: k}, false
		}
	}
	return len(entries), indexEntry{indexKey: k}, false
}

// TestLookupMatchesLinearScanProperty grows an index table key by key
// — so its runs split at positions the keys pick, and lookups cross
// run boundaries of every length — and after each insert checks lookup
// against a scan of every entry for random keys, present or absent.
func TestLookupMatchesLinearScanProperty(t *testing.T) {
	for seed := int64(0); seed < 4; seed++ {
		r := rand.New(rand.NewSource(seed))
		var table runs[indexEntry]
		var entries []indexEntry
		for step := 0; step < 400; step++ {
			k := randomIndexKey(r)
			if i, _, found := linearLookup(entries, k); !found {
				table = table.splice(-1, i, indexEntry{indexKey: k, n: step + 1})
				entries = table.all()
			}
			for range 8 {
				k := randomIndexKey(r)
				i, e, found := lookup(table, k)
				wi, we, wfound := linearLookup(entries, k)
				if i != wi || found != wfound || e.indexKey != we.indexKey || e.n != we.n {
					t.Fatalf("seed %d step %d: lookup(%+v) = %d, %+v, %t; a scan finds %d, %+v, %t",
						seed, step, k, i, e.indexKey, found, wi, we.indexKey, wfound)
				}
			}
		}
		if len(table.spine) < 3 {
			t.Fatalf("seed %d: the table spans %d runs, want several", seed, len(table.spine))
		}
	}
}

// BenchmarkIndexLookup is one lookup in an index table of 6 entries (a
// few properties, a few values) and of 600, which spans runs: the
// search a derive makes for each entry it edits, and an import for
// each equality hint on a string, enum or boolean.
func BenchmarkIndexLookup(b *testing.B) {
	for _, n := range []int{6, 600} {
		b.Run(fmt.Sprintf("entries=%d", n), func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			var table runs[indexEntry]
			var keys []indexKey
			for table.Len() < n {
				k := indexKey{prop: fmt.Sprint(r.Intn(n)), kind: cvStr, str: fmt.Sprint(r.Intn(n))}
				if i, _, found := linearLookup(table.all(), k); !found {
					table = table.splice(-1, i, indexEntry{indexKey: k, n: 1})
					keys = append(keys, k)
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, _, found := lookup(table, keys[i%len(keys)]); !found {
					b.Fatal("a stored key is not found")
				}
			}
		})
	}
}
