package core

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// sameLit is literal equality with floats compared by bits, so NaN
// equals itself and -0 differs from +0.
func sameLit(a, b sidl.Lit) bool {
	if a.Kind == sidl.LitFloat && b.Kind == sidl.LitFloat {
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	}
	return a == b
}

// edgeLits are the literals a text encoding most easily gets wrong.
var edgeLits = []sidl.Lit{
	sidl.BoolLit(true), sidl.BoolLit(false),
	sidl.IntLit(0), sidl.IntLit(-1), sidl.IntLit(99), sidl.IntLit(100),
	sidl.IntLit(math.MinInt64), sidl.IntLit(math.MaxInt64),
	sidl.FloatLit(0), sidl.FloatLit(math.Copysign(0, -1)), sidl.FloatLit(math.NaN()),
	sidl.FloatLit(math.Inf(1)), sidl.FloatLit(math.Inf(-1)),
	sidl.FloatLit(math.SmallestNonzeroFloat64), sidl.FloatLit(-math.MaxFloat64),
	sidl.FloatLit(0.1), sidl.FloatLit(1e21), sidl.FloatLit(-1.2345678901234567e-308),
	sidl.StringLit(""), sidl.StringLit("X"), sidl.StringLit("with spaces, \"quotes\" and ünïcode"),
	sidl.EnumLit("X"), sidl.EnumLit("FIAT_Uno"),
}

// randLit draws a literal of any kind; floats come from random bits,
// with every NaN payload folded into math.NaN(), the one NaN the text
// form carries.
func randLit(r *rand.Rand) sidl.Lit {
	switch r.Intn(6) {
	case 0:
		return sidl.BoolLit(r.Intn(2) == 0)
	case 1:
		return sidl.IntLit(int64(r.Uint64()))
	case 2:
		return sidl.IntLit(int64(r.Intn(200) - 100))
	case 3:
		f := math.Float64frombits(r.Uint64())
		if math.IsNaN(f) {
			f = math.NaN()
		}
		return sidl.FloatLit(f)
	case 4:
		return sidl.StringLit(fmt.Sprintf("s%d", r.Intn(1000)))
	}
	return sidl.EnumLit(fmt.Sprintf("E%d", r.Intn(1000)))
}

// TestLitTextRoundTripProperty: every literal kind survives its
// kind/text form, and PropsToRecords, which renders an offer's numbers
// into one shared string, gives byte for byte the texts EncodeLit gives,
// sorted by name, for any number of properties and after whatever dst
// already holds.
func TestLitTextRoundTripProperty(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	lits := append([]sidl.Lit(nil), edgeLits...)
	for i := 0; i < 2000; i++ {
		lits = append(lits, randLit(r))
	}
	for _, l := range lits {
		kind, text := EncodeLit(l)
		got, err := DecodeLit(kind, text)
		if err != nil || !sameLit(got, l) {
			t.Fatalf("DecodeLit(EncodeLit(%#v)) = %#v, %v", l, got, err)
		}
	}
	if sidl.StringLit("X") == sidl.EnumLit("X") {
		t.Fatal(`StringLit("X") == EnumLit("X"): a string and an enum of the same text must differ`)
	}

	prefix := []PropRecord{{Name: "zz", Kind: "int", Text: "7"}, {Name: "aa", Kind: "string", Text: "kept"}}
	for _, n := range []int{0, 1, 2, 17, 40, 300} {
		props := make(map[string]sidl.Lit, n)
		for len(props) < n {
			l := randLit(r)
			if len(props) < len(edgeLits) && r.Intn(2) == 0 {
				l = edgeLits[len(props)]
			}
			props[fmt.Sprintf("p%05d", r.Intn(100000))] = l
		}
		dst := append(make([]PropRecord, 0, len(prefix)), prefix...)
		got := PropsToRecords(dst, props)
		if len(got) != len(prefix)+n {
			t.Fatalf("n=%d: %d records, want %d", n, len(got), len(prefix)+n)
		}
		for i, p := range prefix {
			if got[i] != p {
				t.Fatalf("n=%d: dst[%d] became %+v, want %+v", n, i, got[i], p)
			}
		}
		recs := got[len(prefix):]
		for i, rec := range recs {
			if i > 0 && recs[i-1].Name >= rec.Name {
				t.Fatalf("n=%d: %q listed after %q", n, rec.Name, recs[i-1].Name)
			}
			l, ok := props[rec.Name]
			if !ok {
				t.Fatalf("n=%d: record %q names no property", n, rec.Name)
			}
			if kind, text := EncodeLit(l); rec.Kind != kind || rec.Text != text {
				t.Fatalf("n=%d: %q renders %s/%q, EncodeLit gives %s/%q", n, rec.Name, rec.Kind, rec.Text, kind, text)
			}
		}
		back, err := PropsFromRecords(recs)
		if err != nil || len(back) != n {
			t.Fatalf("n=%d: PropsFromRecords = %d props, %v", n, len(back), err)
		}
		for name, l := range props {
			if !sameLit(back[name], l) {
				t.Fatalf("n=%d: %q came back as %#v, want %#v", n, name, back[name], l)
			}
		}
	}
}

// TestStringAndEnumSelectApart: a string and an enum with the same text
// share Lit.Str but not Kind, so `P == X` (the enum) and `P == "X"` (the
// string) select different offers, through the equality index and
// through the linear scan alike.
func TestStringAndEnumSelectApart(t *testing.T) {
	for _, linear := range []bool{false, true} {
		s := New(typemgr.NewRepo(), Options{Linear: linear})
		mk := func(id string, host int, l sidl.Lit) *Offer {
			return &Offer{ID: id, Type: "A", Ref: ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", host), "A"), Props: map[string]sidl.Lit{"P": l}}
		}
		s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{
			mk("o1", 1, sidl.StringLit("X")), mk("o2", 2, sidl.EnumLit("X")), mk("o3", 3, sidl.StringLit("Y")),
		}})
		for _, c := range []struct{ constraint, want string }{
			{`P == X`, "o2 "},
			{`P == "X"`, "o1 "},
			{`P != "X"`, "o3 "},
		} {
			var got []*Offer
			for _, m := range mustImport(t, s, "A", c.constraint, "", nil, t0) {
				got = append(got, m.Offer)
			}
			if ids(got) != c.want {
				t.Errorf("linear=%v: %s selects %q, want %q", linear, c.constraint, ids(got), c.want)
			}
		}
	}
}
