package sidl_test

import (
	"bytes"
	"errors"
	"strings"
	"testing"

	"cosm/internal/sidl"
	"cosm/internal/trader"
)

// FuzzParse: SID text arrives off the network at every bind (the
// describe meta-operation answers with it) and in every browser
// listing, so Parse must refuse damage with an error, never a panic.
// And since text is how a SID travels, what Parse accepts must print
// (MarshalText) to text that parses back to a SID printing the very
// same. A syntax error is a *sidl.SyntaxError whose position lies
// inside the input: on one of its lines, at most one byte past that
// line's end. The corpus under testdata/fuzz/FuzzParse holds the
// examples' IDLs beside the two seeded here.
func FuzzParse(f *testing.F) {
	f.Add(sidl.CarRentalIDL)
	f.Add(trader.IDL)
	f.Fuzz(func(t *testing.T, src string) {
		sid, err := sidl.Parse(src)
		if err != nil {
			var se *sidl.SyntaxError
			if errors.As(err, &se) != errors.Is(err, sidl.ErrSyntax) {
				t.Fatalf("%q: a syntax error that is no *SyntaxError, or the reverse: %v", src, err)
			}
			if se == nil {
				return
			}
			lines := strings.Split(src, "\n")
			if se.Line < 1 || se.Line > len(lines) || se.Col < 1 || se.Col > len(lines[se.Line-1])+1 {
				t.Fatalf("%q: error at line %d, col %d lies outside the input", src, se.Line, se.Col)
			}
			return
		}
		text, err := sid.MarshalText()
		if err != nil {
			t.Fatalf("%q parsed but does not print: %v", src, err)
		}
		back, err := sidl.Parse(string(text))
		if err != nil {
			t.Fatalf("%q parsed, but not its printed form: %v\n%s", src, err, text)
		}
		again, err := back.MarshalText()
		if err != nil || !bytes.Equal(again, text) {
			t.Fatalf("%q prints\n%s\nwhich re-parses and prints\n%s%v", src, text, again, err)
		}
	})
}
