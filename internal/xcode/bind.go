package xcode

import (
	"fmt"
	"reflect"
	"strings"
	"sync"

	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// Encode and Decode are the one binding between Go types and SIDL
// types: what code that does have Go types for a SID uses in place of a
// hand-written conversion per struct. DESIGN.md ("Binding") has the
// mapping and the compatibility policy; in short, a struct member binds
// to the exported Go field tagged `sidl:"name"`, else to the one whose
// Go name equals it case-insensitively; Encode fills exactly the members
// of t (Go fields t lacks are dropped, members no field binds to are
// zero); Decode demands a member for every Go field (ErrNoSuchField)
// unless the field is tagged `sidl:",optional"`, and ignores the rest; a
// Go/SIDL kind mismatch is ErrTypeMismatch either way.

// Encode builds the dynamic value of type t from the Go value src (or
// what src points to).
func Encode(t *sidl.Type, src any) (*Value, error) {
	rv := reflect.ValueOf(src)
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	v := new(Value)
	if err := encode(v, t, rv); err != nil {
		return nil, err
	}
	return v, nil
}

// Decode stores the dynamic value v into what dst points to, first
// resetting it to its zero value.
func Decode(v *Value, dst any) error {
	rv := reflect.ValueOf(dst)
	if rv.Kind() != reflect.Pointer || rv.IsNil() {
		return fmt.Errorf("%w: Decode into %T, want a non-nil pointer", ErrTypeMismatch, dst)
	}
	rv.Elem().SetZero()
	return store(v, rv.Elem())
}

var refType = reflect.TypeFor[ref.ServiceRef]()

// goInt reads any Go integer as an int64 and setGoInt stores one; the
// casts between signed and unsigned keep every bit, as the casts of the
// conversions this replaces did (uint64 epochs travel as long long).
func goInt(rv reflect.Value) (int64, bool) {
	switch {
	case rv.CanInt():
		return rv.Int(), true
	case rv.CanUint():
		return int64(rv.Uint()), true
	}
	return 0, false
}

func setGoInt(rv reflect.Value, n int64) bool {
	switch {
	case rv.CanInt():
		rv.SetInt(n)
	case rv.CanUint():
		rv.SetUint(uint64(n))
	default:
		return false
	}
	return true
}

// encode fills v, which the caller allocated, so that the members of a
// struct and the elements of a sequence come out of one allocation.
func encode(v *Value, t *sidl.Type, rv reflect.Value) error {
	v.Type = t
	ok := false
	switch t.Kind {
	case sidl.Void:
		ok = !rv.IsValid() // nothing binds to nothing
	case sidl.Bool:
		if ok = rv.Kind() == reflect.Bool; ok {
			v.Bool = rv.Bool()
		}
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64:
		v.Int, ok = goInt(rv)
	case sidl.UInt32, sidl.UInt64:
		var n int64
		n, ok = goInt(rv)
		v.Uint = uint64(n)
	case sidl.Float32, sidl.Float64:
		if ok = rv.CanFloat(); ok {
			v.Float = rv.Float()
		}
	case sidl.String:
		if ok = rv.Kind() == reflect.String; ok {
			v.Str = rv.String()
		}
	case sidl.Enum:
		if rv.Kind() == reflect.String {
			if v.Ord, ok = t.Ordinal(rv.String()); !ok {
				return fmt.Errorf("%w: %q is not a literal of %s", ErrBadLiteral, rv.String(), t)
			}
		} else if n, isInt := goInt(rv); isInt {
			if n < 0 || n >= int64(len(t.Literals)) {
				return fmt.Errorf("%w: ordinal %d out of range for %s", ErrBadLiteral, n, t)
			}
			v.Ord, ok = int(n), true
		}
	case sidl.SvcRef:
		if ok = rv.IsValid() && rv.Type() == refType; ok {
			v.Ref = ref.ServiceRef{Endpoint: rv.Field(0).String(), Service: rv.Field(1).String()}
		}
	case sidl.Sequence:
		if ok = rv.Kind() == reflect.Slice; !ok || rv.Len() == 0 {
			break
		}
		elems := make([]Value, rv.Len())
		v.Elems = make([]*Value, len(elems))
		for i := range elems {
			v.Elems[i] = &elems[i]
			if err := encode(&elems[i], t.Elem, rv.Index(i)); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	case sidl.Struct:
		if ok = rv.Kind() == reflect.Struct; !ok {
			break
		}
		plan := planOf(rv.Type())
		members := make([]Value, len(t.Fields))
		v.Fields = make([]*Value, len(members))
		for i, f := range t.Fields {
			v.Fields[i] = &members[i]
			if pf := plan.field(f.Name, i); pf == nil {
				members[i] = *Zero(f.Type)
			} else if err := encode(&members[i], f.Type, rv.Field(pf.index)); err != nil {
				return fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
	}
	if !ok {
		if !rv.IsValid() {
			return fmt.Errorf("%w: nil for SIDL %s", ErrTypeMismatch, t)
		}
		return fmt.Errorf("%w: Go %s for SIDL %s", ErrTypeMismatch, rv.Type(), t)
	}
	return nil
}

// store is the recursion of Decode.
func store(v *Value, rv reflect.Value) error {
	t := v.Type
	ok := false
	switch t.Kind {
	case sidl.Bool:
		if ok = rv.Kind() == reflect.Bool; ok {
			rv.SetBool(v.Bool)
		}
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64:
		ok = setGoInt(rv, v.Int)
	case sidl.UInt32, sidl.UInt64:
		ok = setGoInt(rv, int64(v.Uint))
	case sidl.Float32, sidl.Float64:
		if ok = rv.CanFloat(); ok {
			rv.SetFloat(v.Float)
		}
	case sidl.String:
		if ok = rv.Kind() == reflect.String; ok {
			rv.SetString(v.Str)
		}
	case sidl.Enum:
		if ok = rv.Kind() == reflect.String; ok {
			rv.SetString(v.EnumLiteral())
		} else {
			ok = setGoInt(rv, int64(v.Ord))
		}
	case sidl.SvcRef:
		if ok = rv.Type() == refType; ok {
			rv.Field(0).SetString(v.Ref.Endpoint)
			rv.Field(1).SetString(v.Ref.Service)
		}
	case sidl.Sequence:
		if ok = rv.Kind() == reflect.Slice; !ok {
			break
		}
		rv.Grow(len(v.Elems))
		rv.SetLen(len(v.Elems))
		for i, e := range v.Elems {
			if err := store(e, rv.Index(i)); err != nil {
				return fmt.Errorf("element %d: %w", i, err)
			}
		}
	case sidl.Struct:
		if ok = rv.Kind() == reflect.Struct; !ok {
			break
		}
		plan := planOf(rv.Type())
		for i := range plan {
			pf := &plan[i]
			m := member(t, pf, i)
			if m < 0 && !pf.optional {
				return fmt.Errorf("%w: %q in %s", ErrNoSuchField, pf.name, t)
			}
			if m < 0 {
				continue
			}
			if err := store(v.Fields[m], rv.Field(pf.index)); err != nil {
				return fmt.Errorf("field %q: %w", pf.name, err)
			}
		}
	}
	if !ok {
		return fmt.Errorf("%w: Go %s for SIDL %s", ErrTypeMismatch, rv.Type(), t)
	}
	return nil
}

// structPlan is the binding of one Go struct type: its exported fields
// under the names they take in SIDL.
type structPlan []planField

type planField struct {
	// name is the sidl tag's; without one it is the Go name, which then
	// matches a member case-insensitively.
	name     string
	tagged   bool
	optional bool
	index    int
}

func (f *planField) matches(member string) bool {
	return f.name == member || !f.tagged && strings.EqualFold(f.name, member)
}

// plans caches one structPlan per Go struct type. Keyed by Go type, not
// by SIDL type, on purpose: every bind parses a fresh SID, so the SIDL
// types a long-lived process meets are unbounded while its Go types are
// not.
var plans sync.Map // reflect.Type -> structPlan

func planOf(rt reflect.Type) structPlan {
	if p, ok := plans.Load(rt); ok {
		return p.(structPlan)
	}
	var p structPlan
	for i := 0; i < rt.NumField(); i++ {
		sf := rt.Field(i)
		if !sf.IsExported() {
			continue
		}
		pf := planField{name: sf.Name, index: i}
		if tag, ok := sf.Tag.Lookup("sidl"); ok {
			name, opts, _ := strings.Cut(tag, ",")
			if name != "" {
				pf.name, pf.tagged = name, true
			}
			pf.optional = opts == "optional"
		}
		p = append(p, pf)
	}
	plans.Store(rt, p)
	return p
}

// field returns the Go field bound to the named member, trying position
// hint first: Go structs mostly declare their fields in member order.
func (p structPlan) field(member string, hint int) *planField {
	if hint < len(p) && p[hint].matches(member) {
		return &p[hint]
	}
	for i := range p {
		if p[i].matches(member) {
			return &p[i]
		}
	}
	return nil
}

// member returns the position in t of the member pf binds to, or -1.
func member(t *sidl.Type, pf *planField, hint int) int {
	if hint < len(t.Fields) && pf.matches(t.Fields[hint].Name) {
		return hint
	}
	for i, f := range t.Fields {
		if pf.matches(f.Name) {
			return i
		}
	}
	return -1
}
