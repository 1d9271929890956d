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

// sameSnapshot fails unless derived — a snapshot some chain of writes
// derived — holds what a fresh build of the bucket holds: the same
// property counts, and the offer list, each posting list and each
// numeric index entry for entry, since their (Ref, ID) and (value,
// ID) orders are part of the contract (a walk in policy order breaks
// ties by the latter). The lists are compared flattened: where a chain
// of writes split and merged runs legitimately differs from a build,
// which packs them full. Every list of either snapshot must keep the run
// invariants (see checkRuns).
func sameSnapshot(t *testing.T, step string, derived, built *typeSnapshot) {
	t.Helper()
	for _, snap := range []*typeSnapshot{derived, built} {
		checkRuns(t, step+": offers", snap.offers)
		for k, list := range snap.eq {
			checkRuns(t, fmt.Sprintf("%s: posting list %v", step, k), list)
		}
		for name, idx := range snap.num {
			checkRuns(t, fmt.Sprintf("%s: numeric index %q", step, name), idx)
		}
	}
	if d, b := derived.offers.all(), built.offers.all(); !slices.Equal(d, b) {
		t.Fatalf("%s: offers %q, built %q", step, ids(d), ids(b))
	}
	if fmt.Sprint(derived.props) != fmt.Sprint(built.props) {
		t.Fatalf("%s: props %v, built %v", step, derived.props, built.props)
	}
	if len(derived.eq) != len(built.eq) {
		t.Fatalf("%s: %d posting lists, built %d", step, len(derived.eq), len(built.eq))
	}
	for k, list := range built.eq {
		if d, b := derived.eq[k].all(), list.all(); !slices.Equal(d, b) {
			t.Fatalf("%s: posting list %v = %q, built %q", step, k, ids(d), ids(b))
		}
	}
	if len(derived.num) != len(built.num) {
		t.Fatalf("%s: %d numeric indexes, built %d", step, len(derived.num), len(built.num))
	}
	for name, idx := range built.num {
		d, b := derived.num[name].all(), idx.all()
		if !slices.Equal(d, b) {
			t.Fatalf("%s: numeric index %q differs from the built one", step, name)
		}
		for i := 1; i < len(b); i++ {
			if byValID(b[i-1], b[i]) >= 0 {
				t.Fatalf("%s: numeric index %q is not in (value, ID) order at %d", step, name, i)
			}
		}
	}
}

// TestDerivedSnapshotEqualsRebuilt drives a random Apply sequence —
// export batches across two types, withdraw, withdraw_all, replace,
// suspect, purge, and an export re-applied under an already stored ID —
// reading every type before each step, so every write derives. After
// each step every derived snapshot must equal a fresh build of its
// bucket; after Clear nothing is left to read.
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
// the most runs any derived offer list spanned.
func derivedEqualsRebuilt(t *testing.T, seeds int64, steps, preload int) int {
	t.Helper()
	types := []string{"A", "B"}
	widest := 0
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
			o := &Offer{ID: fmt.Sprintf("o%d", len(stored)), Type: typ, Props: props(),
				Ref: ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", len(stored)), "A")}
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
				m = &Mutation{Op: OpExport, Offers: []*Offer{&o}}
			}
			s.Apply(m)
			for _, typ := range types {
				b := s.shardFor(typ).types[typ]
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
				sameSnapshot(t, fmt.Sprintf("seed %d step %d %s type %s", seed, step, m.Op, typ), derived, buildSnapshot(b))
				widest = max(widest, len(derived.offers.spine))
			}
		}
		s.Clear()
		for _, typ := range types {
			if _, ok := s.snapshot(typ); ok {
				t.Fatalf("seed %d: type %s readable after Clear", seed, typ)
			}
		}
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
	if b := s.shardFor("A").types["A"]; b.snap.Load() != nil || builds.Value() != 0 {
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
	for k := range snap.eq {
		if k == (eqK{prop: "ChargePerDay", kind: cvStr, str: "0"}) {
			continue
		}
		t.Fatalf("numeric value in the equality index: %v", k)
	}
}

// TestDerivedWriteBytes pins what one Export and one Withdraw of an
// offer cost together in a read 10 000-offer bucket, whose offers all
// sit in the Price index and in one Colour posting list: each write
// copies the spine and one run of the offer list and of both of those.
// Copying the three whole lists per write allocates ≈660 KB here.
func TestDerivedWriteBytes(t *testing.T) {
	s := New(typemgr.NewRepo(), Options{})
	r := rand.New(rand.NewSource(1))
	var offers []*Offer
	for i, p := range r.Perm(10000) {
		offers = append(offers, offer(fmt.Sprintf("o%05d", i), "B", i, float64(p), 0))
	}
	s.Apply(&Mutation{Op: OpExport, Offers: offers})
	if ms := mustImport(t, s, "B", "Price < 10 && Colour == RED", "", nil, t0); len(ms) != 10 {
		t.Fatalf("import = %q, want 10 offers", matchIDs(ms))
	}
	export := &Mutation{Op: OpExport, Offers: []*Offer{offer("o04999x", "B", 4999, 4999.5, 0)}}
	withdraw := &Mutation{Op: OpWithdraw, IDs: []string{"o04999x"}}
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
	if got := res.AllocsPerOp(); got > 29 { // 29 when each write copied the lists
		t.Fatalf("one Export and Withdraw allocate %d times, want at most 29", got)
	}
	if b := s.shardFor("B").types["B"]; b.snap.Load() == nil || b.snap.Load().offers.Len() != 10000 {
		t.Fatal("the bucket's snapshot was not derived")
	}
}
