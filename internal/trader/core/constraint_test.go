package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cosm/internal/sidl"
)

// TestSyntaxErrorOffsets: a refused constraint reports where parsing
// stopped as a byte offset into the expression as given, leading space
// included, and still matches ErrConstraint.
func TestSyntaxErrorOffsets(t *testing.T) {
	for _, c := range []struct {
		src    string
		offset int
	}{
		{"P ==", 4},
		{"  P ==", 6},
		{"(P", 2},
		{"P ) ", 2},
		{`P == "x`, 5},
		{"P == 1e", 7},
		{"P @ Q", 2},
		{"5", 1},
		{"\t P == 5 extra", 10},
	} {
		_, err := Compile(c.src)
		var se *SyntaxError
		if !errors.As(err, &se) || !errors.Is(err, ErrConstraint) {
			t.Fatalf("Compile(%q) = %v, want a *SyntaxError matching ErrConstraint", c.src, err)
		}
		if se.Offset != c.offset {
			t.Errorf("Compile(%q) stops at %d (%v), want %d", c.src, se.Offset, err, c.offset)
		}
	}
}

// TestCompileAllocs: a compiled constraint of up to four comparisons is
// one allocation, its nodes and hints held with it whatever their
// shape. With a tree of boxed nodes and hint and conjunct slices grown
// by append, the import_match constraint below allocated 8 times.
func TestCompileAllocs(t *testing.T) {
	if raceDetector {
		t.Skip("allocation counts are exact only without the race detector")
	}
	for _, src := range []string{
		"ChargePerDay < 47.25 && AverageMilage > 10800",
		"AirCon",
		"80 >= ChargePerDay",
		"!(A || B) && !!C",
		"CarModel == FIAT_Uno && A == B && C == D && E == F",
		"(P < 1 || Q > 2) && !(R != \"x\" && S)",
		"1 < 2 && P && Q == TRUE && R >= -3e2",
	} {
		if got := testing.AllocsPerRun(100, func() { MustCompile(src) }); got != 1 {
			t.Errorf("Compile(%q) allocates %v times, want 1", src, got)
		}
	}
}

// opText spells a compiled operator as the reference evaluator does.
var opText = map[cop]string{opEq: "==", opNe: "!=", opLt: "<", opLe: "<=", opGt: ">", opGe: ">="}

// checkAgainstReference compiles src with Compile and with the
// reference compiler and reports the first disagreement: in whether
// and where the parse fails, in the hints, and on each property set in
// Match and satisfied. It also checks that every hint holds on each
// property set the constraint matches, where the hint applies, and
// that String round-trips.
func checkAgainstReference(src string, propSets []map[string]sidl.Lit) error {
	c, err := Compile(src)
	ref, refErr := refCompile(src)
	if (err == nil) != (refErr == nil) {
		return fmt.Errorf("Compile(%q) = %v, reference %v", src, err, refErr)
	}
	if err != nil {
		var se, refSE *SyntaxError
		if !errors.As(err, &se) || !errors.As(refErr, &refSE) || se.Offset != refSE.Offset {
			return fmt.Errorf("Compile(%q) fails with %v, reference with %v", src, err, refErr)
		}
		return nil
	}
	if c.String() != src {
		return fmt.Errorf("Compile(%q).String() = %q", src, c.String())
	}
	again, err := Compile(c.String())
	if err != nil {
		return fmt.Errorf("recompiling %q: %v", src, err)
	}
	hints := c.hints()
	if len(hints) != len(ref.idx) {
		return fmt.Errorf("Compile(%q) has %d hints, reference %d", src, len(hints), len(ref.idx))
	}
	for i, h := range hints {
		guard := ""
		if h.val.kind == cvSym {
			guard = h.val.str
		}
		if got := (refHint{prop: h.prop, op: opText[h.op], val: h.val, rhsProp: guard}); got != ref.idx[i] {
			return fmt.Errorf("Compile(%q) hint %d is %+v, reference %+v", src, i, got, ref.idx[i])
		}
	}
	for _, props := range propSets {
		full := c.Match(props)
		if want := ref.match(props); full != want {
			return fmt.Errorf("Compile(%q).Match(%v) = %v, reference %v", src, props, full, want)
		}
		if again.Match(props) != full {
			return fmt.Errorf("Compile(%q) recompiled from String() disagrees on %v", src, props)
		}
		sat, total := c.satisfied(props)
		if refSat, refTotal := ref.satisfied(props); sat != refSat || total != refTotal {
			return fmt.Errorf("Compile(%q).satisfied(%v) = %d of %d, reference %d of %d", src, props, sat, total, refSat, refTotal)
		}
		if !full {
			continue
		}
		for _, h := range hints {
			if _, defined := props[h.val.str]; h.val.kind == cvSym && defined {
				continue // the guard: no index answers this hint here
			}
			holds := refCmp{op: opText[h.op], l: refOperand{isProp: true, name: h.prop}, r: refOperand{lit: h.val}}
			if !holds.eval(props) {
				return fmt.Errorf("Compile(%q) matches %v, but its hint %s %s %+v fails there", src, props, h.prop, opText[h.op], h.val)
			}
		}
	}
	return nil
}

// constraintGen draws random constraint expressions and property sets
// over a small vocabulary, so that comparisons often meet the property
// they name, and enum values are also spelt as property names
// (identifier-as-enum, on either side, with and without a property of
// that name).
type constraintGen struct{ r *rand.Rand }

var (
	genNames = []string{"A", "B", "Price", "Colour", "RED", "USD"}
	genEnums = []string{"RED", "USD", "GREEN"}
)

func (g constraintGen) pick(xs []string) string { return xs[g.r.Intn(len(xs))] }

func (g constraintGen) props() map[string]sidl.Lit {
	props := map[string]sidl.Lit{}
	for _, name := range genNames {
		switch g.r.Intn(7) {
		case 0, 1:
			// absent
		case 2:
			props[name] = sidl.BoolLit(g.r.Intn(2) == 0)
		case 3:
			props[name] = sidl.IntLit(int64(g.r.Intn(5) - 1))
		case 4:
			props[name] = sidl.FloatLit([]float64{0, math.Copysign(0, -1), 1.5, 2, math.NaN()}[g.r.Intn(5)])
		case 5:
			props[name] = sidl.StringLit(g.pick([]string{"", "a", "b", "RED"}))
		default:
			props[name] = sidl.EnumLit(g.pick(genEnums))
		}
	}
	return props
}

func (g constraintGen) operand() string {
	switch g.r.Intn(8) {
	case 0, 1, 2:
		return g.pick(genNames)
	case 3:
		return g.pick(genEnums)
	case 4:
		return g.pick([]string{"-1", "0", "1", "1.5", "2e0", ".5", "-0", "+2"})
	case 5:
		return g.pick([]string{`""`, `"a"`, `"b"`, `"RED"`})
	default:
		return g.pick([]string{"TRUE", "FALSE", "true", "false"})
	}
}

func (g constraintGen) expr(depth int) string {
	sp := func() string { return g.pick([]string{"", " ", "  ", "\t"}) }
	if depth <= 0 || g.r.Intn(3) == 0 {
		if g.r.Intn(5) == 0 {
			return g.pick(genNames) // a bare boolean property
		}
		op := g.pick([]string{"==", "!=", "<", "<=", ">", ">="})
		return g.operand() + sp() + op + sp() + g.operand()
	}
	switch g.r.Intn(5) {
	case 0, 1:
		return g.expr(depth-1) + sp() + "&&" + sp() + g.expr(depth-1)
	case 2:
		return g.expr(depth-1) + sp() + "||" + sp() + g.expr(depth-1)
	case 3:
		return "!" + sp() + g.expr(depth-1)
	default:
		return "(" + sp() + g.expr(depth-1) + sp() + ")"
	}
}

// mangle drops or inserts one byte, so that the parse error paths are
// compared too.
func (g constraintGen) mangle(src string) string {
	i := g.r.Intn(len(src) + 1)
	if g.r.Intn(2) == 0 && i < len(src) {
		return src[:i] + src[i+1:]
	}
	return src[:i] + g.pick([]string{"(", ")", "!", "&", "|", "=", "<", `"`, "1", "x", " ", "@"}) + src[i:]
}

// TestCompileMatchesReferenceProperty: over seeded random constraints —
// &&, ||, !, parentheses, all six comparison operators, every literal
// kind, bare boolean properties, identifiers naming enum values on
// either side, missing properties — and random property sets, the
// compiled constraint agrees with the reference tree evaluator on Match
// and satisfied, has the reference's hints, each a necessary condition
// of a full match, and String round-trips; mangled expressions fail
// where the reference's parse fails.
func TestCompileMatchesReferenceProperty(t *testing.T) {
	g := constraintGen{r: rand.New(rand.NewSource(41))}
	propSets := make([]map[string]sidl.Lit, 48)
	for i := range propSets {
		propSets[i] = g.props()
	}
	for i := 0; i < 4000; i++ {
		src := g.expr(1 + g.r.Intn(5))
		if i%8 == 7 {
			src = g.mangle(src)
		}
		if err := checkAgainstReference(src, propSets); err != nil {
			t.Fatal(err)
		}
	}
}
