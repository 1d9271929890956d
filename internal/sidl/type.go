// Package sidl implements the Service Interface Description Language of
// the COSM infrastructure (paper sections 3.1 and 4.1).
//
// A Service Interface Description (SID) is a communicable, first-class
// description of a remote service: its data types, operation signatures,
// and optional COSM extension modules (trader export attributes, an FSM
// protocol restriction, user interface annotations). The concrete syntax
// conforms to OMG CORBA IDL: a SID is one top-level IDL module whose
// COSM-specific parts are embedded as distinguished sub-modules
// (COSM_Operations, COSM_TraderExport, COSM_FSM, COSM_UI). Components
// that do not understand an embedded module skip it and remain able to
// process the rest of the description — the paper's subtype-polymorphism
// and CORBA-compatibility argument (Fig. 2).
package sidl

import (
	"errors"
	"fmt"
	"strings"
)

// Kind enumerates the SIDL type constructors.
type Kind uint8

// The SIDL kinds. Scalar kinds map to the CORBA IDL basic types; Struct,
// Enum and Sequence are the constructed types; SvcRef is the COSM base
// type SERVICEREFERENCE whose values identify remote services and enable
// binding cascades (section 3.2).
const (
	Void Kind = iota + 1
	Bool
	Octet
	Int16
	Int32
	Int64
	UInt32
	UInt64
	Float32
	Float64
	String
	Enum
	Struct
	Sequence
	SvcRef
)

var kindNames = map[Kind]string{
	Void:     "void",
	Bool:     "boolean",
	Octet:    "octet",
	Int16:    "short",
	Int32:    "long",
	Int64:    "long long",
	UInt32:   "unsigned long",
	UInt64:   "unsigned long long",
	Float32:  "float",
	Float64:  "double",
	String:   "string",
	Enum:     "enum",
	Struct:   "struct",
	Sequence: "sequence",
	SvcRef:   "Object",
}

// String returns the IDL spelling of the kind.
func (k Kind) String() string {
	if s, ok := kindNames[k]; ok {
		return s
	}
	return fmt.Sprintf("Kind(%d)", uint8(k))
}

// Scalar reports whether the kind is a basic (non-constructed) type.
func (k Kind) Scalar() bool {
	switch k {
	case Enum, Struct, Sequence:
		return false
	default:
		return k >= Void && k <= SvcRef
	}
}

// Type describes a SIDL type. Types form trees; named types (introduced
// by typedef, enum or struct declarations) carry their declaration name,
// but conformance and equality are purely structural — the name is
// documentation and pretty-printing metadata only.
type Type struct {
	Kind Kind
	// Name is the declaration name for named types ("" for anonymous
	// occurrences of basic types).
	Name string
	// Literals holds the enumeration literals, in ordinal order (Enum).
	Literals []string
	// Fields holds the record members in declaration order (Struct).
	Fields []Field
	// Elem is the element type (Sequence).
	Elem *Type
}

// Field is one member of a struct type.
type Field struct {
	Name string
	Type *Type
}

// Basic returns the unnamed type of a scalar kind. It panics on
// constructed kinds, which require their shape.
func Basic(k Kind) *Type {
	if !k.Scalar() {
		panic("sidl: Basic called with constructed kind " + k.String())
	}
	return &Type{Kind: k}
}

// EnumOf returns an enum type with the given name and literals.
func EnumOf(name string, literals ...string) *Type {
	return &Type{Kind: Enum, Name: name, Literals: literals}
}

// StructOf returns a struct type with the given name and fields.
func StructOf(name string, fields ...Field) *Type {
	return &Type{Kind: Struct, Name: name, Fields: fields}
}

// SequenceOf returns a sequence type over elem.
func SequenceOf(elem *Type) *Type {
	return &Type{Kind: Sequence, Elem: elem}
}

// hasVoid reports whether void occurs anywhere in the type tree. A void
// value encodes to zero bytes, so a sequence of them could claim any
// length at no cost in input; only an operation's result may be void.
func (t *Type) hasVoid() bool {
	if t == nil {
		return false
	}
	if t.Kind == Void || t.Elem.hasVoid() {
		return true
	}
	for _, f := range t.Fields {
		if f.Type.hasVoid() {
			return true
		}
	}
	return false
}

// Field looks up a struct member by name; ok is false if t is not a
// struct or has no such member.
func (t *Type) Field(name string) (Field, bool) {
	if t == nil || t.Kind != Struct {
		return Field{}, false
	}
	for _, f := range t.Fields {
		if f.Name == name {
			return f, true
		}
	}
	return Field{}, false
}

// Ordinal returns the ordinal of an enum literal; ok is false if t is
// not an enum or the literal is unknown.
func (t *Type) Ordinal(literal string) (int, bool) {
	if t == nil || t.Kind != Enum {
		return 0, false
	}
	for i, l := range t.Literals {
		if l == literal {
			return i, true
		}
	}
	return 0, false
}

// String renders the type reference as it would appear in a declaration
// position: named types by name, anonymous types structurally.
func (t *Type) String() string {
	if t == nil {
		return "<nil>"
	}
	if t.Name != "" {
		return t.Name
	}
	switch t.Kind {
	case Sequence:
		return "sequence<" + t.Elem.String() + ">"
	case Enum:
		return "enum { " + strings.Join(t.Literals, ", ") + " }"
	case Struct:
		var b strings.Builder
		b.WriteString("struct { ")
		for _, f := range t.Fields {
			b.WriteString(f.Type.String())
			b.WriteString(" ")
			b.WriteString(f.Name)
			b.WriteString("; ")
		}
		b.WriteString("}")
		return b.String()
	default:
		return t.Kind.String()
	}
}

// Clone returns a deep copy of the type tree.
func (t *Type) Clone() *Type {
	if t == nil {
		return nil
	}
	c := &Type{Kind: t.Kind, Name: t.Name}
	if t.Literals != nil {
		c.Literals = append([]string(nil), t.Literals...)
	}
	for _, f := range t.Fields {
		c.Fields = append(c.Fields, Field{Name: f.Name, Type: f.Type.Clone()})
	}
	c.Elem = t.Elem.Clone()
	return c
}

// Equal reports structural equality of two types. Names are ignored:
// "typedef long Miles;" is equal to plain "long".
func (t *Type) Equal(o *Type) bool {
	if t == nil || o == nil {
		return t == o
	}
	if t.Kind != o.Kind {
		return false
	}
	switch t.Kind {
	case Enum:
		if len(t.Literals) != len(o.Literals) {
			return false
		}
		for i := range t.Literals {
			if t.Literals[i] != o.Literals[i] {
				return false
			}
		}
		return true
	case Struct:
		if len(t.Fields) != len(o.Fields) {
			return false
		}
		for i := range t.Fields {
			if t.Fields[i].Name != o.Fields[i].Name || !t.Fields[i].Type.Equal(o.Fields[i].Type) {
				return false
			}
		}
		return true
	case Sequence:
		return t.Elem.Equal(o.Elem)
	default:
		return true
	}
}

// ErrNotConformant reports a failed subtype-conformance check.
var ErrNotConformant = errors.New("sidl: type not conformant")

// ConformsTo implements the record subtype polymorphism of section 3.1:
// sub conforms to base if every value of sub can safely be used where a
// value of base is expected. Concretely:
//
//   - scalar types conform to the identical kind;
//   - a struct conforms to a base struct if it has, for every base
//     field, a same-named field of a conforming type ("width" plus
//     "depth" record subtyping, as in Quest or TL record types) — extra
//     fields are permitted and simply invisible to base-typed readers;
//   - an enum conforms to a base enum if the base's literal list is a
//     prefix of its own (extension adds literals at the end, so ordinals
//     of shared literals are stable);
//   - a sequence conforms covariantly through its element type.
//
// Names never matter. ConformsTo(t, t) holds for all t (reflexivity),
// and the relation is transitive.
func (t *Type) ConformsTo(base *Type) bool {
	return t.conformsTo(base) == nil
}

// ExplainConformance returns nil if t conforms to base, or an error
// describing the first violation found (for diagnostics and tests).
func (t *Type) ExplainConformance(base *Type) error {
	return t.conformsTo(base)
}

func (t *Type) conformsTo(base *Type) error {
	if t == nil || base == nil {
		if t == base {
			return nil
		}
		return fmt.Errorf("%w: nil type", ErrNotConformant)
	}
	if t.Kind != base.Kind {
		return fmt.Errorf("%w: kind %s does not conform to %s", ErrNotConformant, t.Kind, base.Kind)
	}
	switch base.Kind {
	case Enum:
		if len(t.Literals) < len(base.Literals) {
			return fmt.Errorf("%w: enum %s lacks literals of base %s", ErrNotConformant, t, base)
		}
		for i, l := range base.Literals {
			if t.Literals[i] != l {
				return fmt.Errorf("%w: enum literal %d is %q, base requires %q", ErrNotConformant, i, t.Literals[i], l)
			}
		}
		return nil
	case Struct:
		for _, bf := range base.Fields {
			sf, ok := t.Field(bf.Name)
			if !ok {
				return fmt.Errorf("%w: struct lacks base field %q", ErrNotConformant, bf.Name)
			}
			if err := sf.Type.conformsTo(bf.Type); err != nil {
				return fmt.Errorf("field %q: %w", bf.Name, err)
			}
		}
		return nil
	case Sequence:
		if err := t.Elem.conformsTo(base.Elem); err != nil {
			return fmt.Errorf("sequence element: %w", err)
		}
		return nil
	default:
		return nil
	}
}
