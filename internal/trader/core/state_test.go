package core

import (
	"fmt"
	"testing"
	"time"

	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// t0 is the instant these tests start at; the core has no clock, so
// every call names its own.
var t0 = time.Unix(1_000_000, 0)

// offer builds a stored-form offer of type A or B: a price, and for B
// a colour. No type is defined in the repository — Apply does not
// validate — so each type conforms only to its own literal name.
func offer(id, typ string, host int, price float64, ttl time.Duration) *Offer {
	o := &Offer{
		ID:    id,
		Type:  typ,
		Ref:   ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", host), typ),
		Props: map[string]sidl.Lit{"Price": sidl.FloatLit(price)},
	}
	if typ == "B" {
		o.Props["Colour"] = sidl.EnumLit("RED")
	}
	if ttl > 0 {
		o.Expires = t0.Add(ttl)
	}
	return o
}

func ids(offers []*Offer) string {
	s := ""
	for _, o := range offers {
		s += o.ID + " "
	}
	return s
}

func mustImport(t *testing.T, s *State, typ, constraint, policy string, remote []Match, now time.Time) []Match {
	t.Helper()
	q, err := s.Prepare(typ, constraint, policy, 0, match.GradeNone)
	if err != nil {
		t.Fatal(err)
	}
	return s.Import(q, remote, now)
}

// TestApplyReturnsWhatItTouched walks every mutation op: Apply reports
// the offers inserted, removed or swapped in, skips IDs the store does
// not hold, and is therefore idempotent — the property recovery and
// replication lean on.
func TestApplyReturnsWhatItTouched(t *testing.T) {
	s := New(typemgr.NewRepo(), Options{})
	a1, a2, b1 := offer("o1", "A", 1, 10, 0), offer("o2", "A", 2, 20, time.Minute), offer("o3", "B", 3, 30, 0)

	if got := s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{a1, a2, b1}}); ids(got) != "o1 o2 o3 " {
		t.Fatalf("export touched %q", ids(got))
	}
	if o, ok := s.Lookup("o2"); !ok || o != a2 {
		t.Fatalf("Lookup(o2) = %v, %v", o, ok)
	}

	got := s.Apply(&Mutation{Op: OpReplace, IDs: []string{"o1", "gone"}, Props: map[string]sidl.Lit{"Price": sidl.FloatLit(11)}})
	if ids(got) != "o1 " || got[0] == a1 || got[0].Props["Price"] != sidl.FloatLit(11) {
		t.Fatalf("replace touched %q (%+v)", ids(got), got)
	}
	if a1.Props["Price"] != sidl.FloatLit(10) {
		t.Fatal("replace edited the stored offer in place; stored offers are immutable")
	}
	got = s.Apply(&Mutation{Op: OpSuspect, IDs: []string{"o3"}, Suspect: true})
	if ids(got) != "o3 " || !got[0].Suspect || b1.Suspect {
		t.Fatalf("suspect touched %q (%+v)", ids(got), got)
	}

	// The purge instant is the mutation's, not a clock's: before o2's
	// lease runs out it reclaims nothing, after it exactly o2, and a
	// replay of the same mutation nothing more.
	if got := s.Apply(&Mutation{Op: OpPurge, At: t0.Add(time.Second)}); len(got) != 0 {
		t.Fatalf("early purge reclaimed %q", ids(got))
	}
	late := &Mutation{Op: OpPurge, At: t0.Add(2 * time.Minute)}
	if got := s.Apply(late); ids(got) != "o2 " {
		t.Fatalf("purge reclaimed %q", ids(got))
	}
	if got := s.Apply(late); len(got) != 0 {
		t.Fatalf("replayed purge reclaimed %q", ids(got))
	}

	gone := &Mutation{Op: OpWithdrawAll, IDs: []string{"o1", "o2", "never"}}
	if got := s.Apply(gone); ids(got) != "o1 " {
		t.Fatalf("withdraw touched %q", ids(got))
	}
	if got := s.Apply(gone); len(got) != 0 {
		t.Fatalf("replayed withdraw touched %q", ids(got))
	}
	if got := s.Apply(&Mutation{Op: OpWithdraw, IDs: []string{"o3"}}); ids(got) != "o3 " || s.Count(t0) != 0 {
		t.Fatalf("last withdraw touched %q, %d left", ids(got), s.Count(t0))
	}
}

// TestReadersTakeNowAsAValue: the same state answers differently for
// different instants, with no mutation and no clock in between.
func TestReadersTakeNowAsAValue(t *testing.T) {
	s := New(typemgr.NewRepo(), Options{ImportCacheTTL: time.Hour})
	s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{
		offer("o2", "A", 2, 20, time.Minute), offer("o1", "A", 1, 10, 0), offer("o3", "B", 3, 30, 0),
	}})
	later := t0.Add(time.Hour)

	if n, m := s.Count(t0), s.Count(later); n != 3 || m != 2 {
		t.Fatalf("Count = %d now, %d later; want 3 and 2", n, m)
	}
	if got := ids(s.Live(t0)); got != "o1 o2 o3 " {
		t.Fatalf("Live now = %q", got)
	}
	if got := ids(s.Live(later)); got != "o1 o3 " {
		t.Fatalf("Live later = %q", got)
	}
	if got := len(s.All()); got != 3 {
		t.Fatalf("All holds %d offers; expired ones stay until purged", got)
	}
	if tc := s.TypeCounts(t0); tc["A"] != 2 || tc["B"] != 1 {
		t.Fatalf("TypeCounts now = %v", tc)
	}
	if tc := s.TypeCounts(later); tc["A"] != 1 || tc["B"] != 1 {
		t.Fatalf("TypeCounts later = %v", tc)
	}
	// The import cache bounds an entry by its shortest lease, measured
	// against the instant each call names.
	if ms := mustImport(t, s, "A", "", "min:Price", nil, t0); len(ms) != 2 || ms[0].ID != "o1" {
		t.Fatalf("import now = %+v", ms)
	}
	if ms := mustImport(t, s, "A", "", "min:Price", nil, later); len(ms) != 1 || ms[0].ID != "o1" {
		t.Fatalf("import later = %+v", ms)
	}

	s.Clear()
	if s.Count(t0) != 0 || len(s.All()) != 0 {
		t.Fatal("Clear left offers behind")
	}
	if ms := mustImport(t, s, "A", "", "min:Price", nil, t0); len(ms) != 0 {
		t.Fatalf("import after Clear served %+v from the cache", ms)
	}
}

// TestImportMergesRemoteMatches: matches a partner trader returned are
// ranked with the local ones, a remote duplicate of a local service is
// shadowed, and a merged result is never cached.
func TestImportMergesRemoteMatches(t *testing.T) {
	s := New(typemgr.NewRepo(), Options{ImportCacheTTL: time.Hour})
	local := offer("o1", "A", 1, 20, 0)
	s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{local}})
	remote := []Match{
		{Offer: offer("P/o7", "A", 7, 10, 0), Grade: match.GradeExact, Score: match.ScoreExact},
		{Offer: offer("P/o1", "A", 1, 5, 0), Grade: match.GradeExact, Score: match.ScoreExact}, // same service as o1
	}
	ms := mustImport(t, s, "A", "Price < 100", "min:Price", remote, t0)
	if len(ms) != 2 || ms[0].ID != "P/o7" || ms[1].ID != "o1" {
		t.Fatalf("merged import = %+v, want P/o7 then o1", ms)
	}
	if ms := mustImport(t, s, "A", "Price < 100", "min:Price", nil, t0); len(ms) != 1 || ms[0].Offer != local {
		t.Fatalf("local import after a merged one = %+v", ms)
	}

	if _, err := s.Prepare("A", "((", "", 0, match.GradeNone); err == nil {
		t.Fatal("Prepare accepted a malformed constraint")
	}
	if _, err := s.Prepare("A", "", "cheapest", 0, match.GradeNone); err == nil {
		t.Fatal("Prepare accepted an unknown policy")
	}
}

// TestCompileCacheBounded: a hostile importer sends a fresh constraint
// per request; the LRU stays at its bound.
func TestCompileCacheBounded(t *testing.T) {
	s := New(typemgr.NewRepo(), Options{ConstraintCacheSize: 4})
	for i := 0; i < 100; i++ {
		if _, err := s.Prepare("A", fmt.Sprintf("Price < %d", i), "", 0, match.GradeNone); err != nil {
			t.Fatal(err)
		}
	}
	if n := s.constraints.len(); n != 4 {
		t.Fatalf("constraint cache holds %d entries, want its bound of 4", n)
	}
}
