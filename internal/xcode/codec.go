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
	switch k := v.Type.Kind; k {
	case sidl.Void:
		return dst
	case sidl.Bool:
		return appendBool(dst, v.Bool)
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64:
		return appendFixed(dst, k, uint64(v.Int))
	case sidl.UInt32, sidl.UInt64:
		return appendFixed(dst, k, v.Uint)
	case sidl.Float32, sidl.Float64:
		return appendFixed(dst, k, floatBits(k, v.Float))
	case sidl.String:
		return appendString(dst, v.Str)
	case sidl.Enum:
		return binary.AppendUvarint(dst, uint64(v.Ord))
	case sidl.SvcRef:
		return appendRef(dst, v.Ref)
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
// exactly one encoded value. Every string the value holds is a window of
// data when data is a string, and a copy when it is bytes.
func Unmarshal[S ~string | ~[]byte](t *sidl.Type, data S) (*Value, error) {
	v, rest, err := decode(t, data)
	if err != nil {
		return nil, err
	}
	if err := checkTrailing(rest); err != nil {
		return nil, err
	}
	return v, nil
}

func decode[S ~string | ~[]byte](t *sidl.Type, data S) (_ *Value, rest S, err error) {
	v := &Value{Type: t}
	switch k := t.Kind; k {
	case sidl.Void:
		return v, data, nil
	case sidl.Bool:
		v.Bool, data, err = decodeBool(data)
	case sidl.Octet, sidl.Int16, sidl.Int32, sidl.Int64:
		var bits uint64
		bits, data, err = decodeFixed(data, fixedSize(k))
		v.Int = signedOf(k, bits)
	case sidl.UInt32, sidl.UInt64:
		v.Uint, data, err = decodeFixed(data, fixedSize(k))
	case sidl.Float32, sidl.Float64:
		var bits uint64
		bits, data, err = decodeFixed(data, fixedSize(k))
		v.Float = floatOf(k, bits)
	case sidl.String:
		var s S
		s, data, err = decodeBytes(data, MaxStringLen)
		v.Str = string(s)
	case sidl.Enum:
		v.Ord, data, err = decodeEnum(t, data)
	case sidl.SvcRef:
		v.Ref, data, err = decodeRef(data)
	case sidl.Sequence:
		var n int
		if n, data, err = decodeSeqLen(t, data); err != nil {
			return nil, rest, err
		}
		v.Elems = make([]*Value, n)
		for i := range v.Elems {
			if v.Elems[i], data, err = decode(t.Elem, data); err != nil {
				return nil, rest, fmt.Errorf("element %d: %w", i, err)
			}
		}
	case sidl.Struct:
		v.Fields = make([]*Value, len(t.Fields))
		for i, f := range t.Fields {
			if v.Fields[i], data, err = decode(f.Type, data); err != nil {
				return nil, rest, fmt.Errorf("field %q: %w", f.Name, err)
			}
		}
	default:
		return nil, rest, fmt.Errorf("%w: unknown kind %s", ErrBadData, t.Kind)
	}
	if err != nil {
		return nil, rest, err
	}
	return v, data, nil
}

// The primitives below are the one definition of each scalar's bytes
// and of every limit, shared by the Value codec above and the binder
// (bind.go). A fixed-size kind travels big-endian in fixedSize bytes
// (octet unsigned, the others two's complement or IEEE 754); a string,
// an Object and an enum ordinal or sequence length lead with a uvarint.
// The decoders read a string or bytes alike, and slice it: what they
// return of a string is a window of it.

// fixedSize returns the encoded size of a fixed-size kind, 0 for the
// others.
func fixedSize(k sidl.Kind) int {
	switch k {
	case sidl.Bool, sidl.Octet:
		return 1
	case sidl.Int16:
		return 2
	case sidl.Int32, sidl.UInt32, sidl.Float32:
		return 4
	case sidl.Int64, sidl.UInt64, sidl.Float64:
		return 8
	}
	return 0
}

// appendFixed appends the low fixedSize(k) bytes of bits.
func appendFixed(dst []byte, k sidl.Kind, bits uint64) []byte {
	switch fixedSize(k) {
	case 1:
		return append(dst, byte(bits))
	case 2:
		return binary.BigEndian.AppendUint16(dst, uint16(bits))
	case 4:
		return binary.BigEndian.AppendUint32(dst, uint32(bits))
	}
	return binary.BigEndian.AppendUint64(dst, bits)
}

// decodeFixed reads the n = fixedSize(k) bytes of a fixed-size kind,
// zero-extended. It takes n, not k, to stay small enough to inline.
func decodeFixed[S ~string | ~[]byte](data S, n int) (bits uint64, rest S, err error) {
	if len(data) < n {
		return 0, rest, ErrTruncated
	}
	for i := 0; i < n; i++ {
		bits = bits<<8 | uint64(data[i])
	}
	return bits, data[n:], nil
}

// intRange returns an integer kind's width in bits and signedness.
func intRange(k sidl.Kind) (bits int, signed bool) {
	return 8 * fixedSize(k), k != sidl.Octet && k != sidl.UInt32 && k != sidl.UInt64
}

// signedOf reads the zero-extended bits of integer kind k as the int64
// the kind means: sign-extended for a signed kind.
func signedOf(k sidl.Kind, bits uint64) int64 {
	switch k {
	case sidl.Int16:
		return int64(int16(bits))
	case sidl.Int32:
		return int64(int32(bits))
	}
	return int64(bits)
}

// signExtend reads the low w bits of bits as two's complement.
func signExtend(bits uint64, w int) int64 {
	return int64(bits<<(64-w)) >> (64 - w)
}

func floatBits(k sidl.Kind, f float64) uint64 {
	if k == sidl.Float32 {
		return uint64(math.Float32bits(float32(f)))
	}
	return math.Float64bits(f)
}

func floatOf(k sidl.Kind, bits uint64) float64 {
	if k == sidl.Float32 {
		return float64(math.Float32frombits(uint32(bits)))
	}
	return math.Float64frombits(bits)
}

func appendBool(dst []byte, b bool) []byte {
	if b {
		return append(dst, 1)
	}
	return append(dst, 0)
}

func decodeBool[S ~string | ~[]byte](data S) (b bool, rest S, err error) {
	if len(data) < 1 {
		return false, rest, ErrTruncated
	}
	if data[0] > 1 {
		return false, rest, badBool(data[0])
	}
	return data[0] == 1, data[1:], nil
}

func badBool(b byte) error { return fmt.Errorf("%w: boolean byte %d", ErrBadData, b) }

func appendString(dst []byte, s string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(s)))
	return append(dst, s...)
}

// appendRef appends r's textual form (ref.ServiceRef.String) as a
// string, the nil reference as the empty one.
func appendRef(dst []byte, r ref.ServiceRef) []byte {
	if r.IsZero() {
		return append(dst, 0)
	}
	const scheme = "cosm://"
	dst = binary.AppendUvarint(dst, uint64(len(scheme)+len(r.Endpoint)+1+len(r.Service)))
	dst = append(dst, scheme...)
	dst = append(dst, r.Endpoint...)
	dst = append(dst, '/')
	return append(dst, r.Service...)
}

// decodeRef reads an Object; its endpoint and service are windows of
// data when data is a string.
func decodeRef[S ~string | ~[]byte](data S) (r ref.ServiceRef, rest S, err error) {
	s, tail, err := decodeBytes(data, MaxStringLen)
	if err != nil || len(s) == 0 {
		return r, tail, err
	}
	if r, err = ref.Parse(string(s)); err != nil {
		return ref.ServiceRef{}, rest, fmt.Errorf("%w: %v", ErrBadData, err)
	}
	return r, tail, nil
}

func decodeEnum[S ~string | ~[]byte](t *sidl.Type, data S) (ord int, rest S, err error) {
	n, tail, err := decodeUvarint(data)
	if err != nil {
		return 0, rest, err
	}
	if n >= uint64(len(t.Literals)) {
		return 0, rest, fmt.Errorf("%w: enum ordinal %d out of range for %s", ErrBadData, n, t)
	}
	return int(n), tail, nil
}

// decodeSeqLen reads a sequence length and refuses it unless the rest
// of the input can hold that many elements — before any decoder
// allocates for them.
func decodeSeqLen[S ~string | ~[]byte](t *sidl.Type, data S) (length int, rest S, err error) {
	n, tail, err := decodeUvarint(data)
	if err != nil {
		return 0, rest, err
	}
	if n > MaxSequenceLen {
		return 0, rest, fmt.Errorf("%w: sequence length %d", ErrOversize, n)
	}
	// Guard against tiny payloads claiming huge lengths: every element
	// must cost input. An element type that can encode to nothing (void,
	// which no valid SID nests) would let a few bytes claim any number
	// of elements, so it is refused outright.
	min := minEncodedSize(t.Elem)
	if min == 0 {
		return 0, rest, fmt.Errorf("%w: sequence of zero-size %s", ErrBadData, t.Elem)
	}
	if n*uint64(min) > uint64(len(tail)) {
		return 0, rest, fmt.Errorf("%w: sequence claims %d elements in %d bytes", ErrBadData, n, len(tail))
	}
	return int(n), tail, nil
}

// appendZero appends the encoding of t's zero value (see Zero).
func appendZero(dst []byte, t *sidl.Type) []byte {
	switch t.Kind {
	case sidl.Struct:
		for _, f := range t.Fields {
			dst = appendZero(dst, f.Type)
		}
		return dst
	case sidl.String, sidl.Enum, sidl.SvcRef, sidl.Sequence:
		return append(dst, 0)
	}
	return append(dst, make([]byte, fixedSize(t.Kind))...)
}

func checkTrailing[S ~string | ~[]byte](rest S) error {
	if len(rest) != 0 {
		return fmt.Errorf("%w: %d trailing bytes", ErrBadData, len(rest))
	}
	return nil
}

// minEncodedSize returns a lower bound on the encoded size of a value of
// t, used to reject absurd sequence length claims early.
func minEncodedSize(t *sidl.Type) int {
	switch t.Kind {
	case sidl.String, sidl.Enum, sidl.SvcRef, sidl.Sequence:
		return 1 // the length/ordinal varint
	case sidl.Struct:
		sum := 0
		for _, f := range t.Fields {
			sum += minEncodedSize(f.Type)
		}
		return sum
	}
	return fixedSize(t.Kind)
}

// decodeUvarint is binary.Uvarint over a string or bytes. Converting a
// string allocates nothing: the bytes do not escape, and they are at
// most binary.MaxVarintLen64+1, one past the longest uvarint so that an
// overlong one still reads as overlong.
func decodeUvarint[S ~string | ~[]byte](data S) (n uint64, rest S, err error) {
	n, size := binary.Uvarint([]byte(data[:min(len(data), binary.MaxVarintLen64+1)]))
	if size <= 0 {
		return 0, rest, ErrTruncated
	}
	return n, data[size:], nil
}

func decodeBytes[S ~string | ~[]byte](data S, limit uint64) (s, rest S, err error) {
	n, tail, err := decodeUvarint(data)
	if err != nil {
		return s, rest, err
	}
	if n > limit {
		return s, rest, fmt.Errorf("%w: length %d", ErrOversize, n)
	}
	if uint64(len(tail)) < n {
		return s, rest, ErrTruncated
	}
	return tail[:n], tail[n:], nil
}
