package core

import (
	"errors"
	"testing"
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
