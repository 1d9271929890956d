package xcode

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// Codec limits. Decoding applies them defensively: a malformed or
// malicious message must not make a node allocate unbounded memory.
const (
	// MaxStringLen bounds decoded string and reference lengths.
	MaxStringLen = 1 << 20
	// MaxSequenceLen bounds decoded sequence lengths.
	MaxSequenceLen = 1 << 18
)

// Errors reported by the codec.
var (
	ErrTruncated = errors.New("xcode: truncated input")
	ErrOversize  = errors.New("xcode: length exceeds limit")
	ErrBadData   = errors.New("xcode: malformed data")
)

// Marshal encodes v into a compact binary form. The encoding is
// type-directed and carries no type tags: both sides must agree on the
// SIDL type, which in COSM they always do, because the type travels in
// the SID. AppendMarshal appends to dst to allow buffer reuse.
func Marshal(v *Value) []byte {
	return AppendMarshal(nil, v)
}

// AppendMarshal appends the encoding of v to dst and returns the
// extended slice.
func AppendMarshal(dst []byte, v *Value) []byte {
	switch v.Type.Kind {
	case sidl.Void:
		return dst
	case sidl.Bool:
		if v.Bool {
			return append(dst, 1)
		}
		return append(dst, 0)
	case sidl.Octet:
		return append(dst, byte(v.Int))
	case sidl.Int16:
		return binary.BigEndian.AppendUint16(dst, uint16(v.Int))
	case sidl.Int32:
		return binary.BigEndian.AppendUint32(dst, uint32(v.Int))
	case sidl.Int64:
		return binary.BigEndian.AppendUint64(dst, uint64(v.Int))
	case sidl.UInt32:
		return binary.BigEndian.AppendUint32(dst, uint32(v.Uint))
	case sidl.UInt64:
		return binary.BigEndian.AppendUint64(dst, v.Uint)
	case sidl.Float32:
		return binary.BigEndian.AppendUint32(dst, math.Float32bits(float32(v.Float)))
	case sidl.Float64:
		return binary.BigEndian.AppendUint64(dst, math.Float64bits(v.Float))
	case sidl.String:
		dst = binary.AppendUvarint(dst, uint64(len(v.Str)))
		return append(dst, v.Str...)
	case sidl.Enum:
		return binary.AppendUvarint(dst, uint64(v.Ord))
	case sidl.SvcRef:
		s := v.Ref.String()
		if v.Ref.IsZero() {
			s = ""
		}
		dst = binary.AppendUvarint(dst, uint64(len(s)))
		return append(dst, s...)
	case sidl.Sequence:
		dst = binary.AppendUvarint(dst, uint64(len(v.Elems)))
		for _, e := range v.Elems {
			dst = AppendMarshal(dst, e)
		}
		return dst
	case sidl.Struct:
		for _, f := range v.Fields {
			dst = AppendMarshal(dst, f)
		}
		return dst
	}
	panic("xcode: Marshal of unknown kind " + v.Type.Kind.String())
}

// Unmarshal decodes a value of type t from data, which must contain
// exactly one encoded value.
func Unmarshal(t *sidl.Type, data []byte) (*Value, error) {
	v, rest, err := decode(t, data)
	if err != nil {
		return nil, err
	}
	if len(rest) != 0 {
		return nil, fmt.Errorf("%w: %d trailing bytes", ErrBadData, len(rest))
	}
	return v, nil
}

func decode(t *sidl.Type, data []byte) (*Value, []byte, error) {
	v := &Value{Type: t}
	switch t.Kind {
	case sidl.Void:
		return v, data, nil
	case sidl.Bool:
		if len(data) < 1 {
			return nil, nil, ErrTruncated
		}
		switch data[0] {
		case 0:
			v.Bool = false
		case 1:
			v.Bool = true
		default:
			return nil, nil, fmt.Errorf("%w: boolean byte %d", ErrBadData, data[0])
		}
		return v, data[1:], nil
	case sidl.Octet:
		if len(data) < 1 {
			return nil, nil, ErrTruncated
		}
		v.Int = int64(data[0])
		return v, data[1:], nil
	case sidl.Int16:
		if len(data) < 2 {
			return nil, nil, ErrTruncated
		}
		v.Int = int64(int16(binary.BigEndian.Uint16(data)))
		return v, data[2:], nil
	case sidl.Int32:
		if len(data) < 4 {
			return nil, nil, ErrTruncated
		}
		v.Int = int64(int32(binary.BigEndian.Uint32(data)))
		return v, data[4:], nil
	case sidl.Int64:
		if len(data) < 8 {
			return nil, nil, ErrTruncated
		}
		v.Int = int64(binary.BigEndian.Uint64(data))
		return v, data[8:], nil
	case sidl.UInt32:
		if len(data) < 4 {
			return nil, nil, ErrTruncated
		}
		v.Uint = uint64(binary.BigEndian.Uint32(data))
		return v, data[4:], nil
	case sidl.UInt64:
		if len(data) < 8 {
			return nil, nil, ErrTruncated
		}
		v.Uint = binary.BigEndian.Uint64(data)
		return v, data[8:], nil
	case sidl.Float32:
		if len(data) < 4 {
			return nil, nil, ErrTruncated
		}
		v.Float = float64(math.Float32frombits(binary.BigEndian.Uint32(data)))
		return v, data[4:], nil
	case sidl.Float64:
		if len(data) < 8 {
			return nil, nil, ErrTruncated
		}
		v.Float = math.Float64frombits(binary.BigEndian.Uint64(data))
		return v, data[8:], nil
	case sidl.String:
		s, rest, err := decodeBytes(data, MaxStringLen)
		if err != nil {
			return nil, nil, err
		}
		v.Str = string(s)
		return v, rest, nil
	case sidl.Enum:
		n, rest, err := decodeUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		if n >= uint64(len(t.Literals)) {
			return nil, nil, fmt.Errorf("%w: enum ordinal %d out of range for %s", ErrBadData, n, t)
		}
		v.Ord = int(n)
		return v, rest, nil
	case sidl.SvcRef:
		s, rest, err := decodeBytes(data, MaxStringLen)
		if err != nil {
			return nil, nil, err
		}
		if len(s) > 0 {
			r, err := ref.Parse(string(s))
			if err != nil {
				return nil, nil, fmt.Errorf("%w: %v", ErrBadData, err)
			}
			v.Ref = r
		}
		return v, rest, nil
	case sidl.Sequence:
		n, rest, err := decodeUvarint(data)
		if err != nil {
			return nil, nil, err
		}
		if n > MaxSequenceLen {
			return nil, nil, fmt.Errorf("%w: sequence length %d", ErrOversize, n)
		}
		// Guard against tiny payloads claiming huge lengths: every
		// element must cost input. An element type that can encode to
		// nothing (void, which no valid SID nests) would let a few bytes
		// claim any number of elements, so it is refused outright.
		min := minEncodedSize(t.Elem)
		if min == 0 {
			return nil, nil, fmt.Errorf("%w: sequence of zero-size %s", ErrBadData, t.Elem)
		}
		if n*uint64(min) > uint64(len(rest)) {
			return nil, nil, fmt.Errorf("%w: sequence claims %d elements in %d bytes", ErrBadData, n, len(rest))
		}
		v.Elems = make([]*Value, n)
		for i := range v.Elems {
			e, r, err := decode(t.Elem, rest)
			if err != nil {
				return nil, nil, fmt.Errorf("element %d: %w", i, err)
			}
			v.Elems[i] = e
			rest = r
		}
		return v, rest, nil
	case sidl.Struct:
		v.Fields = make([]*Value, len(t.Fields))
		rest := data
		for i, f := range t.Fields {
			fv, r, err := decode(f.Type, rest)
			if err != nil {
				return nil, nil, fmt.Errorf("field %q: %w", f.Name, err)
			}
			v.Fields[i] = fv
			rest = r
		}
		return v, rest, nil
	}
	return nil, nil, fmt.Errorf("%w: unknown kind %s", ErrBadData, t.Kind)
}

// minEncodedSize returns a lower bound on the encoded size of a value of
// t, used to reject absurd sequence length claims early.
func minEncodedSize(t *sidl.Type) int {
	switch t.Kind {
	case sidl.Void:
		return 0
	case sidl.Bool, sidl.Octet:
		return 1
	case sidl.Int16:
		return 2
	case sidl.Int32, sidl.UInt32, sidl.Float32:
		return 4
	case sidl.Int64, sidl.UInt64, sidl.Float64:
		return 8
	case sidl.String, sidl.Enum, sidl.SvcRef, sidl.Sequence:
		return 1 // the length/ordinal varint
	case sidl.Struct:
		sum := 0
		for _, f := range t.Fields {
			sum += minEncodedSize(f.Type)
		}
		return sum
	}
	return 0
}

func decodeUvarint(data []byte) (uint64, []byte, error) {
	n, size := binary.Uvarint(data)
	if size <= 0 {
		return 0, nil, ErrTruncated
	}
	return n, data[size:], nil
}

func decodeBytes(data []byte, limit uint64) ([]byte, []byte, error) {
	n, rest, err := decodeUvarint(data)
	if err != nil {
		return nil, nil, err
	}
	if n > limit {
		return nil, nil, fmt.Errorf("%w: length %d", ErrOversize, n)
	}
	if uint64(len(rest)) < n {
		return nil, nil, ErrTruncated
	}
	return rest[:n], rest[n:], nil
}
