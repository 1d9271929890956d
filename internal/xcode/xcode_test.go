package xcode

import (
	"encoding/binary"
	"errors"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// carRentalSelect builds the paper's SelectCar_t request value.
func carRentalSelect(t *testing.T) (*sidl.Type, *Value) {
	t.Helper()
	sid := sidl.CarRentalSID()
	st := sid.Type("SelectCar_t")
	model, err := NewEnum(sid.Type("CarModel_t"), "FIAT_Uno")
	if err != nil {
		t.Fatal(err)
	}
	v, err := NewStruct(st, map[string]*Value{
		"model":       model,
		"bookingDate": NewString(sidl.Basic(sidl.String), "1994-06-21"),
		"days":        NewInt(sidl.Basic(sidl.Int32), 3),
	})
	if err != nil {
		t.Fatal(err)
	}
	return st, v
}

func TestMarshalRoundTripCarRental(t *testing.T) {
	st, v := carRentalSelect(t)
	data := Marshal(v)
	got, err := Unmarshal(st, data)
	if err != nil {
		t.Fatal(err)
	}
	if !got.Equal(v) {
		t.Fatalf("round trip: got %s, want %s", got, v)
	}
}

func TestZero(t *testing.T) {
	sid := sidl.CarRentalSID()
	z := Zero(sid.Type("SelectCar_t"))
	if f, err := z.Field("days"); err != nil || f.Int != 0 {
		t.Fatalf("zero days = %v, %v", f, err)
	}
	if f, err := z.Field("model"); err != nil || f.EnumLiteral() != "AUDI" {
		t.Fatalf("zero model = %v, %v", f, err)
	}
	data := Marshal(z)
	got, err := Unmarshal(sid.Type("SelectCar_t"), data)
	if err != nil || !got.Equal(z) {
		t.Fatalf("zero round trip failed: %v", err)
	}
}

func TestFieldAccess(t *testing.T) {
	_, v := carRentalSelect(t)
	f, err := v.Field("bookingDate")
	if err != nil || f.Str != "1994-06-21" {
		t.Fatalf("Field(bookingDate) = %v, %v", f, err)
	}
	if _, err := v.Field("nope"); !errors.Is(err, ErrNoSuchField) {
		t.Fatalf("Field(nope) err = %v", err)
	}
	if err := v.SetField("days", NewInt(sidl.Basic(sidl.Int32), 7)); err != nil {
		t.Fatal(err)
	}
	if f, _ := v.Field("days"); f.Int != 7 {
		t.Fatalf("days = %d after SetField", f.Int)
	}
	// Type-mismatched SetField must fail.
	if err := v.SetField("days", NewString(sidl.Basic(sidl.String), "x")); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("SetField mismatch err = %v", err)
	}
	// Field access on a non-struct must fail.
	if _, err := NewInt(sidl.Basic(sidl.Int32), 1).Field("x"); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("Field on scalar err = %v", err)
	}
}

func TestNewEnumRejectsUnknownLiteral(t *testing.T) {
	e := sidl.EnumOf("E", "A", "B")
	if _, err := NewEnum(e, "C"); !errors.Is(err, ErrBadLiteral) {
		t.Fatalf("err = %v", err)
	}
}

func TestNewSequenceChecksElements(t *testing.T) {
	seq := sidl.SequenceOf(sidl.Basic(sidl.Int32))
	if _, err := NewSequence(seq, NewInt(sidl.Basic(sidl.Int32), 1), NewString(sidl.Basic(sidl.String), "x")); !errors.Is(err, ErrTypeMismatch) {
		t.Fatalf("err = %v", err)
	}
	v, err := NewSequence(seq, NewInt(sidl.Basic(sidl.Int32), 1))
	if err != nil || len(v.Elems) != 1 {
		t.Fatalf("NewSequence: %v", err)
	}
}

func TestNewStructUnknownField(t *testing.T) {
	st := sidl.StructOf("S", sidl.Field{Name: "a", Type: sidl.Basic(sidl.Int32)})
	if _, err := NewStruct(st, map[string]*Value{"zz": NewInt(sidl.Basic(sidl.Int32), 1)}); !errors.Is(err, ErrNoSuchField) {
		t.Fatalf("err = %v", err)
	}
}

func TestFromLit(t *testing.T) {
	e := sidl.EnumOf("E", "A", "B")
	tests := []struct {
		name    string
		typ     *sidl.Type
		lit     sidl.Lit
		wantErr bool
		check   func(*Value) bool
	}{
		{"bool", sidl.Basic(sidl.Bool), sidl.BoolLit(true), false, func(v *Value) bool { return v.Bool }},
		{"int", sidl.Basic(sidl.Int64), sidl.IntLit(-9), false, func(v *Value) bool { return v.Int == -9 }},
		{"int to uint", sidl.Basic(sidl.UInt32), sidl.IntLit(9), false, func(v *Value) bool { return v.Uint == 9 }},
		{"neg to uint", sidl.Basic(sidl.UInt32), sidl.IntLit(-1), true, nil},
		{"int to float", sidl.Basic(sidl.Float64), sidl.IntLit(4), false, func(v *Value) bool { return v.Float == 4 }},
		{"float", sidl.Basic(sidl.Float32), sidl.FloatLit(1.5), false, func(v *Value) bool { return v.Float == 1.5 }},
		{"string", sidl.Basic(sidl.String), sidl.StringLit("s"), false, func(v *Value) bool { return v.Str == "s" }},
		{"enum", e, sidl.EnumLit("B"), false, func(v *Value) bool { return v.Ord == 1 }},
		{"enum unknown", e, sidl.EnumLit("Z"), true, nil},
		{"bool for int", sidl.Basic(sidl.Int32), sidl.BoolLit(true), true, nil},
		{"string for int", sidl.Basic(sidl.Int32), sidl.StringLit("x"), true, nil},
		{"float for string", sidl.Basic(sidl.String), sidl.FloatLit(1), true, nil},
		{"enum lit for int", sidl.Basic(sidl.Int32), sidl.EnumLit("A"), true, nil},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			v, err := FromLit(tt.typ, tt.lit)
			if tt.wantErr {
				if !errors.Is(err, ErrBadLiteral) {
					t.Fatalf("err = %v, want ErrBadLiteral", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if !tt.check(v) {
				t.Fatalf("value = %s", v)
			}
		})
	}
}

func TestProject(t *testing.T) {
	base := sidl.StructOf("Base", sidl.Field{Name: "x", Type: sidl.Basic(sidl.Int32)})
	ext := sidl.StructOf("Ext",
		sidl.Field{Name: "extra", Type: sidl.Basic(sidl.String)},
		sidl.Field{Name: "x", Type: sidl.Basic(sidl.Int32)},
	)
	v, err := NewStruct(ext, map[string]*Value{
		"x":     NewInt(sidl.Basic(sidl.Int32), 42),
		"extra": NewString(sidl.Basic(sidl.String), "hidden"),
	})
	if err != nil {
		t.Fatal(err)
	}
	p, err := v.Project(base)
	if err != nil {
		t.Fatal(err)
	}
	if len(p.Fields) != 1 || p.Fields[0].Int != 42 {
		t.Fatalf("projection = %s", p)
	}
	// The projection encodes exactly as a base value would.
	want := Marshal(p)
	direct, _ := NewStruct(base, map[string]*Value{"x": NewInt(sidl.Basic(sidl.Int32), 42)})
	if string(want) != string(Marshal(direct)) {
		t.Fatal("projected encoding differs from direct base encoding")
	}
	// Projection to a non-conformant type fails.
	other := sidl.StructOf("O", sidl.Field{Name: "y", Type: sidl.Basic(sidl.Int32)})
	if _, err := v.Project(other); err == nil {
		t.Fatal("projection to non-conformant type must fail")
	}
}

func TestUnmarshalErrors(t *testing.T) {
	int32T := sidl.Basic(sidl.Int32)
	strT := sidl.Basic(sidl.String)
	enumT := sidl.EnumOf("E", "A", "B")
	seqT := sidl.SequenceOf(sidl.Basic(sidl.Int64))
	refT := sidl.Basic(sidl.SvcRef)
	boolT := sidl.Basic(sidl.Bool)

	tests := []struct {
		name string
		typ  *sidl.Type
		data []byte
		want error
	}{
		{"truncated int", int32T, []byte{1, 2}, ErrTruncated},
		{"trailing bytes", int32T, []byte{0, 0, 0, 1, 9}, ErrBadData},
		{"truncated string body", strT, []byte{5, 'a'}, ErrTruncated},
		{"oversize string", strT, []byte{0xFF, 0xFF, 0xFF, 0xFF, 0x7F}, ErrOversize},
		{"enum out of range", enumT, []byte{7}, ErrBadData},
		{"bad bool byte", boolT, []byte{3}, ErrBadData},
		{"absurd sequence claim", seqT, []byte{0xFF, 0xFF, 0x03, 1, 2}, ErrBadData},
		{"bad ref text", refT, append([]byte{5}, "xxxxx"...), ErrBadData},
		{"empty input varint", strT, nil, ErrTruncated},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Unmarshal(tt.typ, tt.data)
			if !errors.Is(err, tt.want) {
				t.Fatalf("Unmarshal err = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestUnmarshalVoidSequence: void encodes to nothing, so before the
// guard refused zero-size elements this 602-byte body — 200 inner
// sequences each claiming MaxSequenceLen voids — decoded into 7.6 GB.
// sidl no longer lets such a type out of a parser; the codec must not
// depend on that.
func TestUnmarshalVoidSequence(t *testing.T) {
	typ := sidl.SequenceOf(sidl.SequenceOf(sidl.Basic(sidl.Void)))
	body := binary.AppendUvarint(nil, 200)
	for i := 0; i < 200; i++ {
		body = binary.AppendUvarint(body, MaxSequenceLen)
	}
	if len(body) != 602 {
		t.Fatalf("body is %d bytes, want the 602 of the report", len(body))
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err := Unmarshal(typ, body)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrBadData) {
		t.Fatalf("Unmarshal = %v, want ErrBadData", err)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 256*uint64(len(body)) {
		t.Fatalf("refusing %d bytes allocated %d", len(body), grew)
	}
	// The same claim over the smallest real element is refused as well.
	octets := sidl.SequenceOf(sidl.SequenceOf(sidl.Basic(sidl.Octet)))
	if _, err := Unmarshal(octets, body); !errors.Is(err, ErrBadData) {
		t.Fatalf("Unmarshal over octets = %v, want ErrBadData", err)
	}
}

func TestSvcRefRoundTrip(t *testing.T) {
	refT := sidl.Basic(sidl.SvcRef)
	r := ref.New("tcp:127.0.0.1:9000", "CarRentalService")
	v := NewRef(refT, r)
	got, err := Unmarshal(refT, Marshal(v))
	if err != nil || got.Ref != r {
		t.Fatalf("ref round trip: %v %v", got, err)
	}
	// Nil reference round-trips as nil.
	nilV := Zero(refT)
	got, err = Unmarshal(refT, Marshal(nilV))
	if err != nil || !got.Ref.IsZero() {
		t.Fatalf("nil ref round trip: %v %v", got, err)
	}
}

func TestValueString(t *testing.T) {
	_, v := carRentalSelect(t)
	s := v.String()
	for _, want := range []string{"model: FIAT_Uno", `bookingDate: "1994-06-21"`, "days: 3"} {
		if !strings.Contains(s, want) {
			t.Fatalf("String() = %q lacks %q", s, want)
		}
	}
}

func TestCloneIsDeep(t *testing.T) {
	_, v := carRentalSelect(t)
	c := v.Clone()
	if !c.Equal(v) {
		t.Fatal("clone must equal original")
	}
	if err := c.SetField("days", NewInt(sidl.Basic(sidl.Int32), 99)); err != nil {
		t.Fatal(err)
	}
	if f, _ := v.Field("days"); f.Int != 3 {
		t.Fatal("mutating clone affected original")
	}
}

func TestEqualDistinguishes(t *testing.T) {
	a := NewInt(sidl.Basic(sidl.Int32), 1)
	b := NewInt(sidl.Basic(sidl.Int32), 2)
	c := NewInt(sidl.Basic(sidl.Int64), 1)
	if a.Equal(b) || a.Equal(c) {
		t.Fatal("Equal must distinguish values and types")
	}
	if !a.Equal(a.Clone()) {
		t.Fatal("Equal must accept equal values")
	}
}

// Property: Marshal/Unmarshal round-trips random values of random types.
func TestCodecRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for i := 0; i < 500; i++ {
		typ := randomTestType(rng, 3)
		v := Random(rng, typ)
		data := Marshal(v)
		got, err := Unmarshal(typ, data)
		if err != nil {
			t.Fatalf("iteration %d: Unmarshal: %v (type %s, value %s)", i, err, typ, v)
		}
		if !got.Equal(v) {
			t.Fatalf("iteration %d: round trip mismatch:\n got %s\nwant %s", i, got, v)
		}
	}
}

// Property: decoding arbitrary junk never panics and never returns both
// nil error and a value that re-encodes differently (canonical decode).
func TestDecodeJunkNeverPanics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for i := 0; i < 2000; i++ {
		typ := randomTestType(rng, 2)
		junk := make([]byte, rng.Intn(32))
		rng.Read(junk)
		v, err := Unmarshal(typ, junk)
		if err != nil {
			continue
		}
		if string(Marshal(v)) != string(junk) {
			t.Fatalf("non-canonical decode of %x as %s", junk, typ)
		}
	}
}

func randomTestType(rng *rand.Rand, depth int) *sidl.Type {
	if depth <= 0 {
		scalars := []sidl.Kind{
			sidl.Bool, sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64,
			sidl.UInt32, sidl.UInt64, sidl.Float32, sidl.Float64,
			sidl.String, sidl.SvcRef,
		}
		return sidl.Basic(scalars[rng.Intn(len(scalars))])
	}
	switch rng.Intn(4) {
	case 0:
		n := 1 + rng.Intn(4)
		lits := make([]string, n)
		for i := range lits {
			lits[i] = string(rune('A' + i))
		}
		return sidl.EnumOf("", lits...)
	case 1:
		n := 1 + rng.Intn(4)
		fields := make([]sidl.Field, n)
		for i := range fields {
			fields[i] = sidl.Field{Name: string(rune('a' + i)), Type: randomTestType(rng, depth-1)}
		}
		return sidl.StructOf("", fields...)
	case 2:
		return sidl.SequenceOf(randomTestType(rng, depth-1))
	default:
		return randomTestType(rng, 0)
	}
}
