package xcode

import (
	"encoding/binary"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"sync"

	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// AppendEncode and DecodeInto are the one binding between Go types and
// SIDL types: what code that does have Go types for a SID uses in place
// of a hand-written conversion per struct. They go straight between Go
// values and the bytes Marshal and Unmarshal define, building no Value.
// DESIGN.md ("Binding") has the mapping and the compatibility policy;
// in short, a struct member binds to the exported Go field tagged
// `sidl:"name"`, else to the one whose Go name equals it
// case-insensitively; AppendEncode writes exactly the members of t (Go
// fields t lacks are dropped, members no field binds to are zero);
// DecodeInto demands a member for every Go field (ErrNoSuchField) unless
// the field is tagged `sidl:",optional"`, and skips the rest; a Go/SIDL
// kind mismatch, or a Go integer that does not fit the integer it binds
// to, is ErrTypeMismatch either way.

// AppendEncode appends the encoding, as SIDL type t, of the Go value src
// (or what src points to) to dst. It refuses what DecodeInto would: a
// non-nil Object that does not survive its textual form
// (ref.ServiceRef.Check), an integer outside the kind's range, a string
// or sequence longer than MaxStringLen or MaxSequenceLen.
func AppendEncode(dst []byte, t *sidl.Type, src any) ([]byte, error) {
	rv := reflect.ValueOf(src)
	for rv.Kind() == reflect.Pointer && !rv.IsNil() {
		rv = rv.Elem()
	}
	return encode(dst, t, rv)
}

// DecodeInto decodes data, which must hold exactly one encoded value of
// type t, into what dst points to. What it decodes comes out as it would
// into a zero destination, with one difference: a slice dst already
// holds keeps its backing array. A non-empty sequence, or string bound
// to a byte slice, decodes into that array when it is long enough, and
// otherwise into a larger one the old elements are copied to, so the
// slices those elements hold keep theirs too: a reused destination
// decodes without growing. An empty one decodes as nil. A struct with an
// unexported field is zeroed whole first, so slices in it start over.
// After an error, what dst holds is unspecified.
// A nil dst decodes into nothing: the bytes are validated exactly as
// Unmarshal would, and no Go value is built. Decoded from a string, every
// Go string dst receives is a window of data (so it keeps data alive);
// decoded from bytes, each is a copy. A Go byte slice is always a copy.
func DecodeInto[S ~string | ~[]byte](t *sidl.Type, data S, dst any) error {
	var rv reflect.Value // invalid: discard
	if dst != nil {
		rv = reflect.ValueOf(dst)
		if rv.Kind() != reflect.Pointer || rv.IsNil() {
			return notPointer(dst)
		}
		rv = rv.Elem()
	}
	rest, err := decodeGo(t, data, rv)
	if err != nil {
		return err
	}
	return checkTrailing(rest)
}

var refType = reflect.TypeFor[ref.ServiceRef]()

// isBytes reports whether rv is a Go byte slice, which binds to a SIDL
// string: how the journal's encoded records travel inside replication.
func isBytes(rv reflect.Value) bool {
	return rv.Kind() == reflect.Slice && rv.Type().Elem().Kind() == reflect.Uint8
}

// The errors are built out of line, keeping the walkers' frames small.

func notPointer(dst any) error {
	return fmt.Errorf("%w: DecodeInto %T, want a non-nil pointer", ErrTypeMismatch, dst)
}

func unknownKind(t *sidl.Type) error { return fmt.Errorf("%w: unknown kind %s", ErrBadData, t.Kind) }

func outOfRange(t *sidl.Type, rv reflect.Value) error {
	return fmt.Errorf("%w: SIDL %s value out of range for Go %s", ErrTypeMismatch, t, rv.Type())
}

func mismatch(rv reflect.Value, t *sidl.Type) error {
	if !rv.IsValid() {
		return fmt.Errorf("%w: nil for SIDL %s", ErrTypeMismatch, t)
	}
	return fmt.Errorf("%w: Go %s for SIDL %s", ErrTypeMismatch, rv.Type(), t)
}

// encode is the recursion of AppendEncode. It and decodeGo hold only
// the constructed kinds and leave each scalar to a leaf function: their
// frames stack up once per level of nesting, on a handler goroutine
// whose stack starts small and grows by copying.
func encode(dst []byte, t *sidl.Type, rv reflect.Value) ([]byte, error) {
	var err error
	switch t.Kind {
	case sidl.Sequence:
		if rv.Kind() != reflect.Slice {
			return nil, mismatch(rv, t)
		}
		n := rv.Len()
		if n > MaxSequenceLen {
			return nil, tooLong(n)
		}
		dst = binary.AppendUvarint(dst, uint64(n))
		if n > 0 && t.Elem.Kind == sidl.Struct && rv.Type().Elem().Kind() == reflect.Struct {
			return encodeStructs(dst, t.Elem, rv)
		}
		for i := 0; i < n; i++ {
			if dst, err = encode(dst, t.Elem, rv.Index(i)); err != nil {
				return nil, inElement(i, err)
			}
		}
		return dst, nil
	case sidl.Struct:
		if rv.Kind() != reflect.Struct {
			return nil, mismatch(rv, t)
		}
		return encodeStructs(dst, t, rv)
	}
	return encodeScalar(dst, t, rv)
}

// encodeStructs encodes, as struct type t, the struct rv or each
// element of the slice rv, finding the Go field of each member once for
// all of them.
func encodeStructs(dst []byte, t *sidl.Type, rv reflect.Value) ([]byte, error) {
	n, seq, rt := 1, rv.Kind() == reflect.Slice, rv.Type()
	if seq {
		n, rt = rv.Len(), rt.Elem()
	}
	var arr [16]int
	fields := bindFields(t, planOf(rt), arr[:0])
	var err error
	for i := 0; i < n; i++ {
		elem := rv
		if seq {
			elem = rv.Index(i)
		}
		for m, f := range t.Fields {
			if j := fields[m]; j < 0 {
				dst = appendZero(dst, f.Type)
			} else if dst, err = encode(dst, f.Type, elem.Field(j)); err != nil {
				err = inField(f.Name, err)
				if seq {
					err = inElement(i, err)
				}
				return nil, err
			}
		}
	}
	return dst, nil
}

func tooLong(n int) error { return fmt.Errorf("%w: length %d", ErrOversize, n) }

func inElement(i int, err error) error { return fmt.Errorf("element %d: %w", i, err) }

func inField(name string, err error) error { return fmt.Errorf("field %q: %w", name, err) }

func encodeScalar(dst []byte, t *sidl.Type, rv reflect.Value) ([]byte, error) {
	switch k := t.Kind; k {
	case sidl.Void:
		if !rv.IsValid() { // nothing binds to nothing
			return dst, nil
		}
	case sidl.Bool:
		if rv.Kind() == reflect.Bool {
			return appendBool(dst, rv.Bool()), nil
		}
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64, sidl.UInt32, sidl.UInt64:
		if bits, ok := intBits(k, rv); ok {
			return appendFixed(dst, k, bits), nil
		}
		if rv.CanInt() || rv.CanUint() {
			return nil, fmt.Errorf("%w: %s %v out of range for SIDL %s", ErrTypeMismatch, rv.Type(), rv, t)
		}
	case sidl.Float32, sidl.Float64:
		if rv.CanFloat() {
			return appendFixed(dst, k, floatBits(k, rv.Float())), nil
		}
	case sidl.String:
		switch {
		case rv.Kind() != reflect.String && !isBytes(rv):
		case rv.Len() > MaxStringLen:
			return nil, tooLong(rv.Len())
		case rv.Kind() == reflect.String:
			return appendString(dst, rv.String()), nil
		default:
			b := rv.Bytes()
			return append(binary.AppendUvarint(dst, uint64(len(b))), b...), nil
		}
	case sidl.Enum:
		var ord int
		switch {
		case rv.Kind() == reflect.String:
			var ok bool
			if ord, ok = t.Ordinal(rv.String()); !ok {
				return nil, fmt.Errorf("%w: %q is not a literal of %s", ErrBadLiteral, rv.String(), t)
			}
		case rv.CanInt() && rv.Int() >= 0 && rv.Int() < int64(len(t.Literals)):
			ord = int(rv.Int())
		case rv.CanUint() && rv.Uint() < uint64(len(t.Literals)):
			ord = int(rv.Uint())
		case rv.CanInt() || rv.CanUint():
			return nil, fmt.Errorf("%w: ordinal %v out of range for %s", ErrBadLiteral, rv, t)
		default:
			return nil, mismatch(rv, t)
		}
		return binary.AppendUvarint(dst, uint64(ord)), nil
	case sidl.SvcRef:
		if rv.IsValid() && rv.Type() == refType {
			r := ref.ServiceRef{Endpoint: rv.Field(0).String(), Service: rv.Field(1).String()}
			if !r.IsZero() {
				if err := r.Check(); err != nil {
					return nil, fmt.Errorf("%w: %w", ErrBadLiteral, err)
				}
			}
			return appendRef(dst, r), nil
		}
	}
	return nil, mismatch(rv, t)
}

// intBits returns the bits integer kind k carries for the Go integer rv,
// and false if rv is no Go integer or its value is outside k's range. A
// Go integer exactly as wide as k crosses signedness as a bit cast: that
// is how a uint64 epoch travels as long long.
func intBits(k sidl.Kind, rv reflect.Value) (uint64, bool) {
	w, signed := intRange(k)
	switch {
	case rv.CanInt():
		n := rv.Int()
		switch {
		case signed:
			return uint64(n), w == 64 || n >= -1<<(w-1) && n < 1<<(w-1)
		case rv.Type().Bits() == w:
			return uint64(n), true
		}
		return uint64(n), n >= 0 && (w == 64 || n < 1<<w)
	case rv.CanUint():
		u := rv.Uint()
		switch {
		case !signed:
			return u, w == 64 || u < 1<<w
		case rv.Type().Bits() == w:
			return u, true
		}
		return u, u < 1<<(w-1)
	}
	return 0, false
}

// setInt stores the zero-extended bits of integer kind k into the Go
// integer rv, under intBits' rule read backwards: a value rv cannot hold
// is refused, a same-width crossing is a bit cast.
func setInt(rv reflect.Value, k sidl.Kind, bits uint64) bool {
	w, signed := intRange(k)
	n := signedOf(k, bits) // for an unsigned kind, negative past MaxInt64
	switch {
	case rv.CanInt():
		if !signed && rv.Type().Bits() == w {
			n = signExtend(bits, w)
		} else if !signed && n < 0 || rv.OverflowInt(n) {
			return false
		}
		rv.SetInt(n)
	case rv.CanUint():
		cast := signed && rv.Type().Bits() == w
		if !cast && (signed && n < 0 || rv.OverflowUint(bits)) {
			return false
		}
		rv.SetUint(bits)
	default:
		return false
	}
	return true
}

// decodeGo is the recursion of DecodeInto; an invalid rv discards.
func decodeGo[S ~string | ~[]byte](t *sidl.Type, data S, rv reflect.Value) (rest S, err error) {
	discard := !rv.IsValid()
	switch t.Kind {
	case sidl.Sequence:
		if !discard && rv.Kind() != reflect.Slice {
			return rest, mismatch(rv, t)
		}
		var n int
		if n, data, err = decodeSeqLen(t, data); err != nil {
			return rest, err
		}
		if !discard {
			setLen(rv, n)
			if n > 0 && t.Elem.Kind == sidl.Struct && rv.Type().Elem().Kind() == reflect.Struct {
				return decodeStructs(t.Elem, data, rv)
			}
		}
		var elem reflect.Value
		for i := 0; i < n; i++ {
			if !discard {
				elem = rv.Index(i)
			}
			if data, err = decodeGo(t.Elem, data, elem); err != nil {
				return rest, inElement(i, err)
			}
		}
		return data, nil
	case sidl.Struct:
		if !discard {
			if rv.Kind() != reflect.Struct {
				return rest, mismatch(rv, t)
			}
			return decodeStructs(t, data, rv)
		}
		for _, f := range t.Fields {
			if data, err = decodeGo(f.Type, data, rv); err != nil {
				return rest, inField(f.Name, err)
			}
		}
		return data, nil
	}
	return decodeScalar(t, data, rv)
}

// setLen makes the slice rv n long, in place when its backing array
// holds n; zero long is nil.
func setLen(rv reflect.Value, n int) {
	if n == 0 {
		rv.SetZero()
		return
	}
	if c := rv.Cap(); c < n {
		rv.SetLen(c) // so that Grow copies every element the array holds
		rv.Grow(n - c)
	}
	rv.SetLen(n)
}

// decodeStructs decodes, as struct type t, into the struct rv or into
// each element of the slice rv, finding the Go field of each member
// once for all of them. Every Go field comes out as from a zero struct:
// the ones a member binds to are decoded, the rest are zeroed.
func decodeStructs[S ~string | ~[]byte](t *sidl.Type, data S, rv reflect.Value) (rest S, err error) {
	n, seq, rt := 1, rv.Kind() == reflect.Slice, rv.Type()
	if seq {
		n, rt = rv.Len(), rt.Elem()
	}
	plan := planOf(rt)
	if err := plan.covers(t); err != nil {
		if seq {
			err = inElement(0, err)
		}
		return rest, err
	}
	var arr [16]int
	fields := bindFields(t, plan, arr[:0])
	unbound := fields[len(t.Fields):]
	for i := 0; i < n; i++ {
		elem := rv
		if seq {
			elem = rv.Index(i)
		}
		if plan.unexported {
			elem.SetZero()
		} else {
			for _, j := range unbound {
				elem.Field(j).SetZero()
			}
		}
		for m, f := range t.Fields {
			var field reflect.Value
			if j := fields[m]; j >= 0 {
				field = elem.Field(j)
			}
			if data, err = decodeGo(f.Type, data, field); err != nil {
				err = inField(f.Name, err)
				if seq {
					err = inElement(i, err)
				}
				return rest, err
			}
		}
	}
	return data, nil
}

func decodeScalar[S ~string | ~[]byte](t *sidl.Type, data S, rv reflect.Value) (rest S, err error) {
	discard := !rv.IsValid()
	ok := discard
	switch k := t.Kind; k {
	case sidl.Void:
		// nothing to read, and no Go value binds to it
	case sidl.Bool:
		var b bool
		if b, data, err = decodeBool(data); err == nil && rv.Kind() == reflect.Bool {
			rv.SetBool(b)
			ok = true
		}
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64, sidl.UInt32, sidl.UInt64:
		var bits uint64
		if bits, data, err = decodeFixed(data, fixedSize(k)); err == nil && !discard {
			if ok = setInt(rv, k, bits); !ok && (rv.CanInt() || rv.CanUint()) {
				return rest, outOfRange(t, rv)
			}
		}
	case sidl.Float32, sidl.Float64:
		var bits uint64
		if bits, data, err = decodeFixed(data, fixedSize(k)); err == nil && rv.CanFloat() {
			rv.SetFloat(floatOf(k, bits))
			ok = true
		}
	case sidl.String:
		var s S
		if s, data, err = decodeBytes(data, MaxStringLen); err == nil && !discard {
			switch {
			case rv.Kind() == reflect.String:
				rv.SetString(string(s))
				ok = true
			case isBytes(rv):
				// A copy: []byte(s) would alias data when S is []byte.
				// Like a sequence's elements, it goes into the slice's
				// own array, and empty decodes as nil.
				setLen(rv, len(s))
				copy(rv.Bytes(), s)
				ok = true
			}
		}
	case sidl.Enum:
		var ord int
		if ord, data, err = decodeEnum(t, data); err == nil && !discard {
			if ok = rv.Kind() == reflect.String; ok {
				rv.SetString(t.Literals[ord])
			} else {
				ok = setInt(rv, sidl.Int64, uint64(ord))
			}
		}
	case sidl.SvcRef:
		var r ref.ServiceRef
		if r, data, err = decodeRef(data); err == nil && !discard && rv.Type() == refType {
			rv.Field(0).SetString(r.Endpoint)
			rv.Field(1).SetString(r.Service)
			ok = true
		}
	default:
		return rest, unknownKind(t)
	}
	if err != nil {
		return rest, err
	}
	if !ok {
		return rest, mismatch(rv, t)
	}
	return data, nil
}

// structPlan is the binding of one Go struct type: its exported fields
// under the names they take in SIDL.
type structPlan struct {
	fields []planField
	// unexported is whether the type has an unexported field, which the
	// binder cannot zero on its own.
	unexported bool
}

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
			p.unexported = true
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
		p.fields = append(p.fields, pf)
	}
	plans.Store(rt, p)
	return p
}

// field returns the Go field bound to the named member, trying position
// hint first: Go structs mostly declare their fields in member order.
func (p structPlan) field(member string, hint int) *planField {
	if hint < len(p.fields) && p.fields[hint].matches(member) {
		return &p.fields[hint]
	}
	for i := range p.fields {
		if p.fields[i].matches(member) {
			return &p.fields[i]
		}
	}
	return nil
}

// bindFields appends to fields, for each member of struct type t, the
// index of the Go field it binds to, or -1, and then the index of each
// exported Go field no member binds to. The encoder and the decoder
// find them once per struct or sequence of structs, not per element,
// into an array on their stack that most structs fit, so finding them
// allocates nothing.
func bindFields(t *sidl.Type, p structPlan, fields []int) []int {
	for i, f := range t.Fields {
		j := -1
		if pf := p.field(f.Name, i); pf != nil {
			j = pf.index
		}
		fields = append(fields, j)
	}
	for _, pf := range p.fields {
		if !slices.Contains(fields[:len(t.Fields)], pf.index) {
			fields = append(fields, pf.index)
		}
	}
	return fields
}

// covers demands a member of t for each Go field not tagged optional.
func (p structPlan) covers(t *sidl.Type) error {
	for i := range p.fields {
		if pf := &p.fields[i]; !pf.optional && member(t, pf, i) < 0 {
			return fmt.Errorf("%w: %q in %s", ErrNoSuchField, pf.name, t)
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
