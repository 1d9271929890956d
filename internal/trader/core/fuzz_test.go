package core

import (
	"errors"
	"testing"

	"cosm/internal/sidl"
)

// FuzzCompile: the constraint parser faces the network, so it must
// refuse garbage with an error, never a panic, and that error is a
// *SyntaxError whose offset lies inside the input; whatever it accepts
// must evaluate on the paper's section 4.1 offer without panicking
// either, and count its conjuncts consistently with Match. Accepted or
// refused, it must agree with the reference tree evaluator (see
// checkAgainstReference) on that offer. The seed corpus under
// testdata/fuzz/FuzzCompile is the accept and reject tables of the
// constraint tests, nests at the depth limit, and ! and || under &&.
func FuzzCompile(f *testing.F) {
	props := map[string]sidl.Lit{
		"CarModel":       sidl.EnumLit("FIAT_Uno"),
		"AverageMilage":  sidl.IntLit(38000),
		"ChargePerDay":   sidl.FloatLit(80),
		"ChargeCurrency": sidl.EnumLit("USD"),
		"AirCon":         sidl.BoolLit(true),
		"City":           sidl.StringLit("Hamburg"),
	}
	f.Fuzz(func(t *testing.T, src string) {
		if err := checkAgainstReference(src, []map[string]sidl.Lit{props}); err != nil {
			t.Fatal(err)
		}
		c, err := Compile(src)
		if err != nil {
			var se *SyntaxError
			if !errors.As(err, &se) || !errors.Is(err, ErrConstraint) {
				t.Fatalf("Compile(%q): %v is not a *SyntaxError matching ErrConstraint", src, err)
			}
			if se.Offset < 0 || se.Offset > len(src) {
				t.Fatalf("Compile(%q): offset %d outside [0, %d]", src, se.Offset, len(src))
			}
			return
		}
		full := c.Match(props)
		if sat, total := c.satisfied(props); (sat == total) != full {
			t.Fatalf("Compile(%q): Match = %v but %d of %d conjuncts hold", src, full, sat, total)
		}
	})
}
