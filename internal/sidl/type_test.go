package sidl

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	if got := Int64.String(); got != "long long" {
		t.Fatalf("Int64.String() = %q", got)
	}
	if got := Kind(99).String(); got != "Kind(99)" {
		t.Fatalf("unknown kind = %q", got)
	}
}

func TestBasicPanicsOnConstructed(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Basic(Struct) should panic")
		}
	}()
	Basic(Struct)
}

func TestFieldAndOrdinal(t *testing.T) {
	st := StructOf("S", Field{Name: "a", Type: Basic(Int32)}, Field{Name: "b", Type: Basic(String)})
	if f, ok := st.Field("b"); !ok || f.Type.Kind != String {
		t.Fatalf("Field(b) = %+v, %v", f, ok)
	}
	if _, ok := st.Field("zz"); ok {
		t.Fatal("Field(zz) should be absent")
	}
	if _, ok := Basic(Int32).Field("a"); ok {
		t.Fatal("Field on non-struct should be absent")
	}
	en := EnumOf("E", "A", "B", "C")
	if ord, ok := en.Ordinal("C"); !ok || ord != 2 {
		t.Fatalf("Ordinal(C) = %d, %v", ord, ok)
	}
	if _, ok := en.Ordinal("Z"); ok {
		t.Fatal("Ordinal(Z) should be absent")
	}
	if _, ok := Basic(Int32).Ordinal("A"); ok {
		t.Fatal("Ordinal on non-enum should be absent")
	}
}

func TestTypeEqualIgnoresNames(t *testing.T) {
	a := &Type{Kind: Int32, Name: "Miles"}
	b := Basic(Int32)
	if !a.Equal(b) {
		t.Fatal("typedef'd long must equal plain long")
	}
}

func TestTypeEqual(t *testing.T) {
	s1 := StructOf("S", Field{Name: "a", Type: Basic(Int32)})
	s2 := StructOf("T", Field{Name: "a", Type: Basic(Int32)})
	s3 := StructOf("S", Field{Name: "a", Type: Basic(Int64)})
	s4 := StructOf("S", Field{Name: "b", Type: Basic(Int32)})
	if !s1.Equal(s2) {
		t.Fatal("same structure, different names must be Equal")
	}
	if s1.Equal(s3) || s1.Equal(s4) {
		t.Fatal("different structures must not be Equal")
	}
	q1 := SequenceOf(Basic(String))
	q2 := SequenceOf(Basic(String))
	q3 := SequenceOf(Basic(Bool))
	if !q1.Equal(q2) || q1.Equal(q3) {
		t.Fatal("sequence equality broken")
	}
	e1 := EnumOf("E", "A", "B")
	e2 := EnumOf("F", "A", "B")
	e3 := EnumOf("E", "B", "A")
	if !e1.Equal(e2) || e1.Equal(e3) {
		t.Fatal("enum equality broken")
	}
}

func TestConformsToScalars(t *testing.T) {
	kinds := []Kind{Bool, Octet, Int16, Int32, Int64, UInt32, UInt64, Float32, Float64, String, SvcRef}
	for _, a := range kinds {
		for _, b := range kinds {
			got := Basic(a).ConformsTo(Basic(b))
			if want := a == b; got != want {
				t.Fatalf("Basic(%s).ConformsTo(Basic(%s)) = %v, want %v", a, b, got, want)
			}
		}
	}
}

func TestConformsToRecordWidth(t *testing.T) {
	// The paper's SIDBase/SIDSub example: a record subtype has at least
	// the base's fields and possibly more (Fig. 2).
	base := StructOf("SIDBase",
		Field{Name: "typespec", Type: Basic(String)},
		Field{Name: "opspec", Type: Basic(String)},
	)
	sub := StructOf("SIDSub",
		Field{Name: "typespec", Type: Basic(String)},
		Field{Name: "opspec", Type: Basic(String)},
		Field{Name: "fsmspec", Type: Basic(String)},
	)
	if !sub.ConformsTo(base) {
		t.Fatalf("SIDSub must conform to SIDBase: %v", sub.ExplainConformance(base))
	}
	if base.ConformsTo(sub) {
		t.Fatal("SIDBase must not conform to SIDSub (missing fsmspec)")
	}
	// Field order does not matter.
	shuffled := StructOf("S",
		Field{Name: "opspec", Type: Basic(String)},
		Field{Name: "typespec", Type: Basic(String)},
	)
	if !shuffled.ConformsTo(base) {
		t.Fatal("field order must not affect conformance")
	}
}

func TestConformsToDepth(t *testing.T) {
	innerBase := StructOf("", Field{Name: "x", Type: Basic(Int32)})
	innerSub := StructOf("", Field{Name: "x", Type: Basic(Int32)}, Field{Name: "y", Type: Basic(Int32)})
	base := StructOf("B", Field{Name: "inner", Type: innerBase})
	sub := StructOf("S", Field{Name: "inner", Type: innerSub})
	if !sub.ConformsTo(base) {
		t.Fatal("depth subtyping must hold")
	}
	if base.ConformsTo(sub) {
		t.Fatal("depth subtyping is directional")
	}
}

func TestConformsToEnumPrefix(t *testing.T) {
	base := EnumOf("CarModel", "AUDI", "FIAT_Uno")
	extended := EnumOf("CarModel2", "AUDI", "FIAT_Uno", "VW_Golf")
	reordered := EnumOf("CarModel3", "FIAT_Uno", "AUDI", "VW_Golf")
	if !extended.ConformsTo(base) {
		t.Fatal("extended enum must conform to base")
	}
	if base.ConformsTo(extended) {
		t.Fatal("base enum must not conform to extension")
	}
	if reordered.ConformsTo(base) {
		t.Fatal("reordering literals changes ordinals and breaks conformance")
	}
}

func TestConformsToSequenceCovariant(t *testing.T) {
	base := SequenceOf(StructOf("", Field{Name: "a", Type: Basic(Int32)}))
	sub := SequenceOf(StructOf("", Field{Name: "a", Type: Basic(Int32)}, Field{Name: "b", Type: Basic(Bool)}))
	if !sub.ConformsTo(base) {
		t.Fatal("sequences must be covariant in the element type")
	}
	if base.ConformsTo(sub) {
		t.Fatal("sequence covariance is directional")
	}
}

func TestConformsToKindMismatch(t *testing.T) {
	if Basic(Int32).ConformsTo(Basic(Float64)) {
		t.Fatal("long must not conform to double")
	}
	if SequenceOf(Basic(Int32)).ConformsTo(Basic(Int32)) {
		t.Fatal("sequence must not conform to scalar")
	}
}

func TestCloneIsDeep(t *testing.T) {
	orig := StructOf("S",
		Field{Name: "e", Type: EnumOf("E", "A")},
		Field{Name: "q", Type: SequenceOf(Basic(Int32))},
	)
	c := orig.Clone()
	if !c.Equal(orig) {
		t.Fatal("clone must equal original")
	}
	c.Fields[0].Type.Literals[0] = "CHANGED"
	if orig.Fields[0].Type.Literals[0] != "A" {
		t.Fatal("clone shares enum literals with original")
	}
	c.Fields[1].Type.Elem.Kind = Bool
	if orig.Fields[1].Type.Elem.Kind != Int32 {
		t.Fatal("clone shares sequence element with original")
	}
}

// TestBasicTypesShared: the unnamed scalar members of every parsed SID
// are one shared value per kind, and Clone, whose result a typedef
// names, never returns a shared one.
func TestBasicTypesShared(t *testing.T) {
	// scalars gathers every unnamed scalar type reachable from sid.
	scalars := func(sid *SID) []*Type {
		var out []*Type
		var walk func(*Type)
		walk = func(t *Type) {
			if t == nil {
				return
			}
			if t.Kind.Scalar() && t.Name == "" {
				out = append(out, t)
			}
			for _, f := range t.Fields {
				walk(f.Type)
			}
			walk(t.Elem)
		}
		for _, ty := range sid.Types {
			walk(ty)
		}
		for _, op := range sid.Ops {
			walk(op.Result)
			for _, p := range op.Params {
				walk(p.Type)
			}
		}
		return out
	}
	a, b := CarRentalSID(), CarRentalSID()
	got := append(scalars(a), scalars(b)...)
	if len(got) == 0 {
		t.Fatal("the car rental SID has no scalar member")
	}
	for _, ty := range got {
		if ty != Basic(ty.Kind) {
			t.Fatalf("a parsed %s member is not the shared basic type", ty.Kind)
		}
	}
	for _, ty := range scalars(a.Clone()) {
		if ty == Basic(ty.Kind) {
			t.Fatalf("a cloned SID shares the basic %s type", ty.Kind)
		}
	}
	for k := Void; k <= SvcRef; k++ {
		if k.Scalar() && Basic(k).Clone() == Basic(k) {
			t.Fatalf("Clone of the basic %s type returned it", k)
		}
	}
	miles, err := Parse("module M { typedef long Miles; interface COSM_Operations { Miles trip(in long km); }; };")
	if err != nil {
		t.Fatal(err)
	}
	if ty := miles.Type("Miles"); ty == nil || ty.Kind != Int32 || Basic(Int32).Name != "" {
		t.Fatalf("typedef Miles = %+v; the basic long is named %q", ty, Basic(Int32).Name)
	}
}

// randomType builds a random type tree of bounded depth for properties.
func randomType(rng *rand.Rand, depth int) *Type {
	if depth <= 0 {
		scalars := []Kind{Bool, Int32, Int64, Float64, String}
		return Basic(scalars[rng.Intn(len(scalars))])
	}
	switch rng.Intn(4) {
	case 0:
		n := 1 + rng.Intn(3)
		lits := make([]string, n)
		for i := range lits {
			lits[i] = string(rune('A' + i))
		}
		return EnumOf("", lits...)
	case 1:
		n := 1 + rng.Intn(3)
		fields := make([]Field, n)
		for i := range fields {
			fields[i] = Field{Name: string(rune('a' + i)), Type: randomType(rng, depth-1)}
		}
		return StructOf("", fields...)
	case 2:
		return SequenceOf(randomType(rng, depth-1))
	default:
		return randomType(rng, 0)
	}
}

// extendType returns a strict-or-equal supertype-conforming extension of
// t: it adds fields to structs and literals to enums, recursively.
func extendType(rng *rand.Rand, t *Type) *Type {
	c := t.Clone()
	switch c.Kind {
	case Struct:
		for i := range c.Fields {
			c.Fields[i].Type = extendType(rng, c.Fields[i].Type)
		}
		c.Fields = append(c.Fields, Field{Name: "extra_field", Type: Basic(Bool)})
	case Enum:
		c.Literals = append(c.Literals, "EXTRA_LIT")
	case Sequence:
		c.Elem = extendType(rng, c.Elem)
	}
	return c
}

// Properties of the conformance relation: reflexivity, extension
// conformance, and transitivity through a double extension.
func TestConformanceProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 300; i++ {
		base := randomType(rng, 3)
		if !base.ConformsTo(base) {
			t.Fatalf("reflexivity violated for %s", base)
		}
		ext := extendType(rng, base)
		if err := ext.ExplainConformance(base); err != nil {
			t.Fatalf("extension must conform: %v\nbase: %s\next: %s", err, base, ext)
		}
		ext2 := extendType(rng, ext)
		if !ext2.ConformsTo(base) {
			t.Fatalf("transitivity violated:\nbase: %s\next2: %s", base, ext2)
		}
	}
}

// Property: Clone is always Equal and never aliases (checked via
// reflect.DeepEqual after mutation-free comparison).
func TestClonePropertyQuick(t *testing.T) {
	cfg := &quick.Config{
		MaxCount: 100,
		Values: func(vals []reflect.Value, rng *rand.Rand) {
			vals[0] = reflect.ValueOf(randomType(rng, 3))
		},
	}
	f := func(tt *Type) bool {
		c := tt.Clone()
		return c.Equal(tt) && reflect.DeepEqual(c, tt)
	}
	if err := quick.Check(f, cfg); err != nil {
		t.Fatal(err)
	}
}
