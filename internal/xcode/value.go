// Package xcode implements the dynamic value model and the type-directed
// wire encoding of the COSM infrastructure.
//
// The paper's generic client (section 3.1) requires "dynamic marshalling
// of transferred parameters": because a SID is obtained at run time, no
// compiled stubs exist, so parameter values must be represented and
// encoded generically, driven by the SIDL type description itself. A
// Value is a typed tree mirroring its *sidl.Type; Marshal and Unmarshal
// translate between Value trees and a compact binary wire form.
package xcode

import (
	"errors"
	"fmt"
	"strconv"
	"strings"

	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// Errors reported by value construction and access.
var (
	ErrTypeMismatch = errors.New("xcode: value/type mismatch")
	ErrNoSuchField  = errors.New("xcode: no such field")
	ErrBadLiteral   = errors.New("xcode: literal does not fit type")
)

// Value is a dynamically typed SIDL value. Its shape mirrors Type: a
// scalar holds one of the payload fields, a struct holds Fields aligned
// positionally with Type.Fields, a sequence holds Elems.
type Value struct {
	Type *sidl.Type

	Bool  bool
	Int   int64  // Octet, Int16, Int32, Int64
	Uint  uint64 // UInt32, UInt64
	Float float64
	Str   string
	Ord   int // Enum ordinal
	Ref   ref.ServiceRef

	Elems  []*Value // Sequence
	Fields []*Value // Struct, positional
}

// Zero returns the zero value of t: false, 0, "", first enum literal,
// empty sequence, struct of zero fields, nil reference.
func Zero(t *sidl.Type) *Value {
	v := &Value{Type: t}
	if t.Kind == sidl.Struct {
		v.Fields = make([]*Value, len(t.Fields))
		for i, f := range t.Fields {
			v.Fields[i] = Zero(f.Type)
		}
	}
	return v
}

// Bool, Int, ... construct scalar values of the given type.

// NewBool returns a boolean value of type t (which must be Bool).
func NewBool(t *sidl.Type, b bool) *Value { mustKind(t, sidl.Bool); return &Value{Type: t, Bool: b} }

// NewInt returns a signed integral value of type t.
func NewInt(t *sidl.Type, i int64) *Value {
	switch t.Kind {
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64:
		return &Value{Type: t, Int: i}
	}
	panic("xcode: NewInt with kind " + t.Kind.String())
}

// NewUint returns an unsigned integral value of type t.
func NewUint(t *sidl.Type, u uint64) *Value {
	switch t.Kind {
	case sidl.UInt32, sidl.UInt64:
		return &Value{Type: t, Uint: u}
	}
	panic("xcode: NewUint with kind " + t.Kind.String())
}

// NewFloat returns a floating-point value of type t.
func NewFloat(t *sidl.Type, f float64) *Value {
	switch t.Kind {
	case sidl.Float32, sidl.Float64:
		return &Value{Type: t, Float: f}
	}
	panic("xcode: NewFloat with kind " + t.Kind.String())
}

// NewString returns a string value of type t.
func NewString(t *sidl.Type, s string) *Value {
	mustKind(t, sidl.String)
	return &Value{Type: t, Str: s}
}

// NewRef returns a service-reference value of type t.
func NewRef(t *sidl.Type, r ref.ServiceRef) *Value {
	mustKind(t, sidl.SvcRef)
	return &Value{Type: t, Ref: r}
}

// NewEnum returns an enum value by literal name.
func NewEnum(t *sidl.Type, literal string) (*Value, error) {
	ord, ok := t.Ordinal(literal)
	if !ok {
		return nil, fmt.Errorf("%w: %q is not a literal of %s", ErrBadLiteral, literal, t)
	}
	return &Value{Type: t, Ord: ord}, nil
}

// NewSequence returns a sequence value over the given elements; each
// element's type must conform to t's element type.
func NewSequence(t *sidl.Type, elems ...*Value) (*Value, error) {
	mustKind(t, sidl.Sequence)
	for i, e := range elems {
		if !e.Type.ConformsTo(t.Elem) {
			return nil, fmt.Errorf("%w: element %d has type %s, want %s", ErrTypeMismatch, i, e.Type, t.Elem)
		}
	}
	return &Value{Type: t, Elems: elems}, nil
}

// NewStruct returns a struct value with fields given by name. Missing
// fields are zero-valued; unknown names are an error.
func NewStruct(t *sidl.Type, fields map[string]*Value) (*Value, error) {
	mustKind(t, sidl.Struct)
	v := Zero(t)
	for name, fv := range fields {
		if err := v.SetField(name, fv); err != nil {
			return nil, err
		}
	}
	return v, nil
}

func mustKind(t *sidl.Type, k sidl.Kind) {
	if t.Kind != k {
		panic("xcode: constructor type kind " + t.Kind.String() + ", want " + k.String())
	}
}

// CheckLit reports whether FromLit converts the SIDL literal l to a
// value of type t — nil when it does, FromLit's error when not —
// without building the value: a valid literal costs no allocation.
func CheckLit(t *sidl.Type, l sidl.Lit) error {
	var what string
	switch l.Kind {
	case sidl.LitBool:
		if t.Kind == sidl.Bool {
			return nil
		}
		what = "boolean"
	case sidl.LitInt:
		switch t.Kind {
		case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64, sidl.Float32, sidl.Float64:
			return nil
		case sidl.UInt32, sidl.UInt64:
			if l.Int < 0 {
				return fmt.Errorf("%w: negative literal for %s", ErrBadLiteral, t)
			}
			return nil
		}
		what = "integer"
	case sidl.LitFloat:
		if t.Kind == sidl.Float32 || t.Kind == sidl.Float64 {
			return nil
		}
		what = "float"
	case sidl.LitString:
		if t.Kind == sidl.String {
			return nil
		}
		what = "string"
	case sidl.LitEnum:
		if t.Kind != sidl.Enum {
			what = "enum"
			break
		}
		if _, ok := t.Ordinal(l.Str); !ok {
			return fmt.Errorf("%w: %q is not a literal of %s", ErrBadLiteral, l.Str, t)
		}
		return nil
	default:
		return fmt.Errorf("%w: unknown literal kind %d", ErrBadLiteral, l.Kind)
	}
	return fmt.Errorf("%w: %s literal for %s", ErrBadLiteral, what, t)
}

// FromLit converts a SIDL literal to a value of type t; CheckLit decides
// which literals convert.
func FromLit(t *sidl.Type, l sidl.Lit) (*Value, error) {
	if err := CheckLit(t, l); err != nil {
		return nil, err
	}
	switch l.Kind {
	case sidl.LitBool:
		return NewBool(t, l.Bool), nil
	case sidl.LitInt:
		switch t.Kind {
		case sidl.UInt32, sidl.UInt64:
			return NewUint(t, uint64(l.Int)), nil
		case sidl.Float32, sidl.Float64:
			return NewFloat(t, float64(l.Int)), nil
		}
		return NewInt(t, l.Int), nil
	case sidl.LitFloat:
		return NewFloat(t, l.Float), nil
	case sidl.LitString:
		return NewString(t, l.Str), nil
	}
	return NewEnum(t, l.Str)
}

// Field returns the struct member by name.
func (v *Value) Field(name string) (*Value, error) {
	if v.Type.Kind != sidl.Struct {
		return nil, fmt.Errorf("%w: Field on %s", ErrTypeMismatch, v.Type)
	}
	for i, f := range v.Type.Fields {
		if f.Name == name {
			return v.Fields[i], nil
		}
	}
	return nil, fmt.Errorf("%w: %q in %s", ErrNoSuchField, name, v.Type)
}

// SetField replaces the struct member by name; the new value's type must
// conform to the field type.
func (v *Value) SetField(name string, fv *Value) error {
	if v.Type.Kind != sidl.Struct {
		return fmt.Errorf("%w: SetField on %s", ErrTypeMismatch, v.Type)
	}
	for i, f := range v.Type.Fields {
		if f.Name == name {
			if !fv.Type.ConformsTo(f.Type) {
				return fmt.Errorf("%w: field %q has type %s, want %s", ErrTypeMismatch, name, fv.Type, f.Type)
			}
			v.Fields[i] = fv
			return nil
		}
	}
	return fmt.Errorf("%w: %q in %s", ErrNoSuchField, name, v.Type)
}

// EnumLiteral returns the literal name of an enum value.
func (v *Value) EnumLiteral() string {
	if v.Type.Kind != sidl.Enum || v.Ord < 0 || v.Ord >= len(v.Type.Literals) {
		return ""
	}
	return v.Type.Literals[v.Ord]
}

// Project returns a view of v as the given base type, which v's type
// must conform to: extra struct fields are dropped, recursively. This is
// how an extended value is handed to a component that only understands
// the base description (section 3.1).
func (v *Value) Project(base *sidl.Type) (*Value, error) {
	if err := v.Type.ExplainConformance(base); err != nil {
		return nil, err
	}
	return projectConformant(v, base), nil
}

func projectConformant(v *Value, base *sidl.Type) *Value {
	switch base.Kind {
	case sidl.Struct:
		out := &Value{Type: base, Fields: make([]*Value, len(base.Fields))}
		for i, bf := range base.Fields {
			fv, _ := v.Field(bf.Name) // conformance already checked
			out.Fields[i] = projectConformant(fv, bf.Type)
		}
		return out
	case sidl.Sequence:
		out := &Value{Type: base, Elems: make([]*Value, len(v.Elems))}
		for i, e := range v.Elems {
			out.Elems[i] = projectConformant(e, base.Elem)
		}
		return out
	case sidl.Enum:
		return &Value{Type: base, Ord: v.Ord}
	default:
		c := *v
		c.Type = base
		return &c
	}
}

// Equal reports deep equality of two values (types compared
// structurally).
func (v *Value) Equal(o *Value) bool {
	if v == nil || o == nil {
		return v == o
	}
	if !v.Type.Equal(o.Type) {
		return false
	}
	switch v.Type.Kind {
	case sidl.Void:
		return true
	case sidl.Bool:
		return v.Bool == o.Bool
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64:
		return v.Int == o.Int
	case sidl.UInt32, sidl.UInt64:
		return v.Uint == o.Uint
	case sidl.Float32, sidl.Float64:
		// NaN equals NaN here: a value must equal its own clone.
		return v.Float == o.Float || v.Float != v.Float && o.Float != o.Float
	case sidl.String:
		return v.Str == o.Str
	case sidl.Enum:
		return v.Ord == o.Ord
	case sidl.SvcRef:
		return v.Ref == o.Ref
	case sidl.Sequence:
		if len(v.Elems) != len(o.Elems) {
			return false
		}
		for i := range v.Elems {
			if !v.Elems[i].Equal(o.Elems[i]) {
				return false
			}
		}
		return true
	case sidl.Struct:
		if len(v.Fields) != len(o.Fields) {
			return false
		}
		for i := range v.Fields {
			if !v.Fields[i].Equal(o.Fields[i]) {
				return false
			}
		}
		return true
	}
	return false
}

// Clone returns a deep copy (sharing the immutable type).
func (v *Value) Clone() *Value {
	if v == nil {
		return nil
	}
	c := *v
	if v.Elems != nil {
		c.Elems = make([]*Value, len(v.Elems))
		for i, e := range v.Elems {
			c.Elems[i] = e.Clone()
		}
	}
	if v.Fields != nil {
		c.Fields = make([]*Value, len(v.Fields))
		for i, f := range v.Fields {
			c.Fields[i] = f.Clone()
		}
	}
	return &c
}

// String renders the value in a compact human-readable form used by the
// generated user interfaces and logs.
func (v *Value) String() string {
	var b strings.Builder
	v.render(&b)
	return b.String()
}

func (v *Value) render(b *strings.Builder) {
	if v == nil {
		b.WriteString("<nil>")
		return
	}
	switch v.Type.Kind {
	case sidl.Void:
		b.WriteString("void")
	case sidl.Bool:
		b.WriteString(strconv.FormatBool(v.Bool))
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64:
		b.WriteString(strconv.FormatInt(v.Int, 10))
	case sidl.UInt32, sidl.UInt64:
		b.WriteString(strconv.FormatUint(v.Uint, 10))
	case sidl.Float32, sidl.Float64:
		b.WriteString(strconv.FormatFloat(v.Float, 'g', -1, 64))
	case sidl.String:
		b.WriteString(strconv.Quote(v.Str))
	case sidl.Enum:
		b.WriteString(v.EnumLiteral())
	case sidl.SvcRef:
		b.WriteString(v.Ref.String())
	case sidl.Sequence:
		b.WriteByte('[')
		for i, e := range v.Elems {
			if i > 0 {
				b.WriteString(", ")
			}
			e.render(b)
		}
		b.WriteByte(']')
	case sidl.Struct:
		b.WriteByte('{')
		for i, f := range v.Type.Fields {
			if i > 0 {
				b.WriteString(", ")
			}
			b.WriteString(f.Name)
			b.WriteString(": ")
			v.Fields[i].render(b)
		}
		b.WriteByte('}')
	default:
		fmt.Fprintf(b, "<kind %d>", v.Type.Kind)
	}
}
