package match

import (
	"testing"

	"cosm/internal/typemgr"
)

func TestGradeLattice(t *testing.T) {
	if !(GradeNone < GradePartial && GradePartial < GradeSubtype && GradeSubtype < GradeExact) {
		t.Fatal("grade lattice out of order")
	}
	if !GradeExact.AtLeast(GradeSubtype) || GradePartial.AtLeast(GradeSubtype) {
		t.Fatal("AtLeast broken")
	}
	for _, g := range []Grade{GradeNone, GradePartial, GradeSubtype, GradeExact} {
		back, err := ParseGrade(g.String())
		if err != nil || back != g {
			t.Fatalf("ParseGrade(%q) = %v, %v; want %v", g.String(), back, err, g)
		}
	}
	if g, err := ParseGrade("partial"); err != nil || g != GradePartial {
		t.Fatalf("ParseGrade(partial) = %v, %v", g, err)
	}
	if _, err := ParseGrade("bogus"); err == nil {
		t.Fatal("ParseGrade(bogus) should fail")
	}
}

func TestTypeScoreOrdering(t *testing.T) {
	// exact > depth1 > depth2 > ... > structural, and deep chains
	// never fall below the structural floor.
	prev := TypeScore(0, false)
	if prev != ScoreExact {
		t.Fatalf("TypeScore(0) = %v", prev)
	}
	for d := 1; d <= 12; d++ {
		s := TypeScore(d, false)
		if s > prev {
			t.Fatalf("TypeScore(%d) = %v not monotone", d, s)
		}
		if s <= ScoreStructural {
			t.Fatalf("TypeScore(%d) = %v under structural score", d, s)
		}
		prev = s
	}
	if TypeScore(0, true) != ScoreStructural {
		t.Fatal("structural score wrong")
	}
}

func TestPartialAlwaysBelowFull(t *testing.T) {
	// Any full match (worst case: structural) must outrank any partial
	// match (best case: exact type, all-but-guaranteed conjuncts).
	bestPartial := PartialScore(ScoreExact, 99, 100)
	if bestPartial >= ScoreStructural {
		t.Fatalf("best partial %v >= worst full %v", bestPartial, ScoreStructural)
	}
	if PartialScore(ScoreExact, 0, 3) != 0 || PartialScore(ScoreExact, 2, 0) != 0 {
		t.Fatal("degenerate partial scores should be 0")
	}
	if PartialScore(1, 1, 2) >= PartialScore(1, 2, 3) {
		t.Fatal("partial score not monotone in satisfied fraction")
	}
}

func TestGradeClosure(t *testing.T) {
	cl := []typemgr.ConformantType{
		{Name: "A", Depth: 0},
		{Name: "B", Depth: 1},
		{Name: "D", Depth: 2},
		{Name: "S", Structural: true},
	}
	tms := GradeClosure(cl)
	if tms[0].Grade != GradeExact || tms[0].Score != ScoreExact {
		t.Fatalf("base graded %+v", tms[0])
	}
	for _, tm := range tms[1:] {
		if tm.Grade != GradeSubtype {
			t.Fatalf("%s graded %v, want subtype", tm.Name, tm.Grade)
		}
	}
	if !(tms[1].Score > tms[2].Score && tms[2].Score > tms[3].Score) {
		t.Fatalf("closure scores not ordered: %+v", tms)
	}
}

func TestGradeRemote(t *testing.T) {
	cl := GradeClosure([]typemgr.ConformantType{
		{Name: "A", Depth: 0}, {Name: "B", Depth: 1},
	})
	if g, s := GradeRemote("A", "A", cl); g != GradeExact || s != ScoreExact {
		t.Fatalf("exact remote: %v %v", g, s)
	}
	if g, s := GradeRemote("A", "B", cl); g != GradeSubtype || s != TypeScore(1, false) {
		t.Fatalf("closure remote: %v %v", g, s)
	}
	// Unknown type vouched for by an old peer: conservative subtype.
	if g, s := GradeRemote("A", "X", cl); g != GradeSubtype || s != ScoreStructural {
		t.Fatalf("unknown remote: %v %v", g, s)
	}
}
