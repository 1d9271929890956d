package core

import (
	"testing"

	"cosm/internal/sidl"
)

// FuzzCompile: the constraint parser faces the network, so it must
// refuse garbage with an error, never a panic; whatever it accepts must
// evaluate on the paper's section 4.1 offer without panicking either,
// and count its conjuncts consistently with Match. The seed corpus
// under testdata/fuzz/FuzzCompile is the accept and reject tables of
// the constraint tests.
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
		c, err := Compile(src)
		if err != nil {
			return
		}
		full := c.Match(props)
		if sat, total := c.satisfied(props); (sat == total) != full {
			t.Fatalf("Compile(%q): Match = %v but %d of %d conjuncts hold", src, full, sat, total)
		}
	})
}
