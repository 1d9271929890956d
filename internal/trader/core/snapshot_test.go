package core

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"time"

	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// sameSnapshot fails unless derived — a snapshot some chain of writes
// derived — holds what a fresh build of the bucket holds: the same
// version, offers, property counts and posting lists, and each numeric
// index as the same multiset of (value, offer) pairs in ascending value
// order (equal values keep no particular order).
func sameSnapshot(t *testing.T, step string, derived, built *typeSnapshot) {
	t.Helper()
	if derived.version != built.version {
		t.Fatalf("%s: version %d, built %d", step, derived.version, built.version)
	}
	if !slices.Equal(derived.offers, built.offers) {
		t.Fatalf("%s: offers %q, built %q", step, ids(derived.offers), ids(built.offers))
	}
	if fmt.Sprint(derived.props) != fmt.Sprint(built.props) {
		t.Fatalf("%s: props %v, built %v", step, derived.props, built.props)
	}
	if len(derived.eq) != len(built.eq) {
		t.Fatalf("%s: %d posting lists, built %d", step, len(derived.eq), len(built.eq))
	}
	for k, list := range built.eq {
		if !slices.Equal(derived.eq[k], list) {
			t.Fatalf("%s: posting list %q = %q, built %q", step, k, ids(derived.eq[k]), ids(list))
		}
	}
	if len(derived.num) != len(built.num) {
		t.Fatalf("%s: %d numeric indexes, built %d", step, len(derived.num), len(built.num))
	}
	pairs := func(ni *numIndex) []string {
		var out []string
		for i, x := range ni.vals {
			out = append(out, fmt.Sprintf("%v@%p", x, ni.offers[i]))
		}
		sort.Strings(out)
		return out
	}
	for name, ni := range built.num {
		d := derived.num[name]
		if d == nil || !sort.Float64sAreSorted(d.vals) || !slices.Equal(pairs(d), pairs(ni)) {
			t.Fatalf("%s: numeric index %q differs from the built one", step, name)
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
	types := []string{"A", "B"}
	for seed := int64(0); seed < 40; seed++ {
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
		for step := 0; step < 60; step++ {
			read := map[string]bool{}
			for _, typ := range types {
				_, read[typ] = s.snapshot(typ)
			}
			var m *Mutation
			switch k := r.Intn(8); {
			case k < 3 || len(stored) == 0:
				m = &Mutation{Op: OpExport}
				for i := 1 + r.Intn(4); i > 0; i-- {
					o := &Offer{ID: fmt.Sprintf("o%d", len(stored)), Type: types[r.Intn(2)], Props: props(),
						Ref: ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", len(stored)), "A")}
					if r.Intn(4) == 0 {
						o.Expires = t0.Add(time.Duration(r.Intn(60)) * time.Second)
					}
					stored = append(stored, o)
					m.Offers = append(m.Offers, o)
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
			}
		}
		s.Clear()
		for _, typ := range types {
			if _, ok := s.snapshot(typ); ok {
				t.Fatalf("seed %d: type %s readable after Clear", seed, typ)
			}
		}
	}
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
		if k == "ChargePerDay\x00s:0" {
			continue
		}
		t.Fatalf("numeric value in the equality index: %q", k)
	}
}
