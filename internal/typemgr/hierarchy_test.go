package typemgr

import (
	"errors"
	"fmt"
	"testing"

	"cosm/internal/sidl"
)

// attrType builds a minimal service type with int attributes by name.
func attrType(name, super string, attrs ...string) *ServiceType {
	st := &ServiceType{Name: name, Super: super}
	for _, a := range attrs {
		st.Attrs = append(st.Attrs, AttrDef{Name: a, Type: sidl.Basic(sidl.Int64)})
	}
	return st
}

// diamondRepo builds a diamond-shaped conformance graph:
//
//	    A{x}
//	   /    \
//	B{x,y} C{x,z}     (both declare Super=A)
//	   \    /
//	  D{x,y,z}        (declares Super=B, structurally conforms to C)
func diamondRepo(t *testing.T) *Repo {
	t.Helper()
	r := NewRepo()
	for _, st := range []*ServiceType{
		attrType("A", "", "x"),
		attrType("B", "A", "x", "y"),
		attrType("C", "A", "x", "z"),
		attrType("D", "B", "x", "y", "z"),
	} {
		if err := r.Define(st); err != nil {
			t.Fatalf("Define(%s): %v", st.Name, err)
		}
	}
	return r
}

func closureNames(cl []ConformantType) []string {
	out := make([]string, len(cl))
	for i, c := range cl {
		out[i] = c.Name
	}
	return out
}

func TestConformingTypesDiamond(t *testing.T) {
	r := diamondRepo(t)

	cl, err := r.ConformingTypes("A")
	if err != nil {
		t.Fatalf("ConformingTypes(A): %v", err)
	}
	want := []string{"A", "B", "C", "D"}
	got := closureNames(cl)
	if len(got) != len(want) {
		t.Fatalf("closure(A) = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("closure(A) = %v, want %v", got, want)
		}
	}
	// The base is depth 0, B/C are depth 1, D is depth 2 via B.
	if cl[0].Depth != 0 || cl[1].Depth != 1 || cl[2].Depth != 1 || cl[3].Depth != 2 {
		t.Fatalf("closure(A) depths wrong: %+v", cl)
	}

	// D reaches C structurally only (its declared chain runs D→B→A).
	clC, err := r.ConformingTypes("C")
	if err != nil {
		t.Fatalf("ConformingTypes(C): %v", err)
	}
	foundD := false
	for _, c := range clC {
		if c.Name == "D" {
			foundD = true
			if !c.Structural {
				t.Fatalf("D in closure(C) should be structural-only: %+v", c)
			}
		}
	}
	if !foundD {
		t.Fatalf("closure(C) = %+v, want D via structural conformance", clC)
	}
}

func TestConformingTypesAgreesWithConforms(t *testing.T) {
	r := diamondRepo(t)
	for _, base := range r.Names() {
		inClosure := map[string]bool{}
		cl, err := r.ConformingTypes(base)
		if err != nil {
			t.Fatalf("ConformingTypes(%s): %v", base, err)
		}
		for _, c := range cl {
			inClosure[c.Name] = true
		}
		for _, sub := range r.Names() {
			conf, err := r.Conforms(sub, base)
			if err != nil {
				t.Fatalf("Conforms(%s, %s): %v", sub, base, err)
			}
			if conf != inClosure[sub] {
				t.Fatalf("Conforms(%s, %s) = %v but closure membership = %v",
					sub, base, conf, inClosure[sub])
			}
			if r.Covers(base, sub) != conf {
				t.Fatalf("Covers(%s, %s) disagrees with Conforms", base, sub)
			}
		}
	}
}

func TestConformingTypesInvalidation(t *testing.T) {
	r := diamondRepo(t)
	before, err := r.ConformingTypes("A")
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Define(attrType("E", "C", "x", "z", "w")); err != nil {
		t.Fatalf("Define(E): %v", err)
	}
	after, err := r.ConformingTypes("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(after) != len(before)+1 {
		t.Fatalf("closure(A) not invalidated on Define: before %v, after %v",
			closureNames(before), closureNames(after))
	}
	if err := r.Remove("E"); err != nil {
		t.Fatalf("Remove(E): %v", err)
	}
	final, err := r.ConformingTypes("A")
	if err != nil {
		t.Fatal(err)
	}
	if len(final) != len(before) {
		t.Fatalf("closure(A) not invalidated on Remove: %v", closureNames(final))
	}
}

func TestConformingTypesUnknownBase(t *testing.T) {
	r := diamondRepo(t)
	if _, err := r.ConformingTypes("Nope"); !errors.Is(err, ErrTypeUnknown) {
		t.Fatalf("ConformingTypes(unknown) = %v, want ErrTypeUnknown", err)
	}
	// An unknown base is not cached; a second call must answer the same.
	if _, err := r.ConformingTypes("Nope"); !errors.Is(err, ErrTypeUnknown) {
		t.Fatalf("second ConformingTypes(unknown) = %v, want ErrTypeUnknown", err)
	}
	if r.Covers("Nope", "A") {
		t.Fatal("Covers(unknown base) should be false")
	}
	// Unknown sub against a known base: not covered, no panic.
	if r.Covers("A", "Nope") {
		t.Fatal("Covers(A, unknown sub) should be false")
	}
}

// TestUnknownBasesAreNotCached: importers choose the type names they
// send, so the closure cache keeps known bases only. With a nil entry
// cached per unknown name, 10 000 names left 10 000 entries until the
// next Define or Remove.
func TestUnknownBasesAreNotCached(t *testing.T) {
	r := diamondRepo(t)
	for i := 0; i < 10000; i++ {
		if _, err := r.ConformingTypes(fmt.Sprintf("Unknown%d", i)); err != ErrTypeUnknown {
			t.Fatalf("ConformingTypes(Unknown%d) = %v, want the bare ErrTypeUnknown", i, err)
		}
	}
	if n := len(r.hier.closures); n != 0 {
		t.Fatalf("the closure cache holds %d entries after unknown bases, want 0", n)
	}
	if _, err := r.ConformingTypes("A"); err != nil {
		t.Fatal(err)
	}
	if n := len(r.hier.closures); n != 1 {
		t.Fatalf("the closure cache holds %d entries after one known base, want 1", n)
	}
}

func TestDefineRejectsSelfCycle(t *testing.T) {
	r := NewRepo()
	err := r.Define(attrType("Loop", "Loop", "x"))
	if !errors.Is(err, ErrTypeCycle) {
		t.Fatalf("Define(self-super) = %v, want ErrTypeCycle", err)
	}
}

// TestHierarchyCycleRejected corrupts a repository directly (the public
// Define path cannot create a loop: supertypes must pre-exist and names
// are immutable) and proves every hierarchy walk fails loudly with
// ErrTypeCycle instead of spinning.
func TestHierarchyCycleRejected(t *testing.T) {
	r := NewRepo()
	if err := r.Define(attrType("Z", "", "zz")); err != nil {
		t.Fatal(err)
	}
	r.types["A"] = attrType("A", "B", "x")
	r.types["B"] = attrType("B", "A", "x")
	r.gen.Add(1)

	// Building Z's closure must walk A's chain A→B→A and bail out.
	if _, err := r.ConformingTypes("Z"); !errors.Is(err, ErrTypeCycle) {
		t.Fatalf("ConformingTypes over cycle = %v, want ErrTypeCycle", err)
	}
	if _, err := r.Conforms("A", "Z"); !errors.Is(err, ErrTypeCycle) {
		t.Fatalf("Conforms over cycle = %v, want ErrTypeCycle", err)
	}
	// A later Define that would hang off the loop is rejected too.
	if err := r.Define(attrType("C", "A", "x")); !errors.Is(err, ErrTypeCycle) {
		t.Fatalf("Define under cycle = %v, want ErrTypeCycle", err)
	}
}
