package xcode_test

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"

	. "cosm/internal/xcode"
)

// FuzzUnmarshal: argument and result bodies come off the network, typed
// by a SID that came off the network too, so decoding must refuse damage
// with an error — never a panic, never memory out of proportion to the
// input (a sequence of void once turned 602 bytes into 7.6 GB) — and
// whatever does decode must survive its own encoding. It is also
// differential twice over. The binder, which decodes the same bytes
// straight into Go values, must accept exactly what Unmarshal accepts,
// with a Go destination and without one, and what it built must encode
// back to a value equal to Unmarshal's. And each of them reads the input
// as bytes, as the journal does, and as a string, as a client reads a
// reply: the two readings must agree. A third reading decodes the
// string into a destination left dirty by the previous input of the same
// type, as a client's reused reply scratch is, and must agree with the
// fresh one in what it accepts and, Go field for Go field, in what it
// builds. The first argument picks the type from mirrors(); the corpus
// under testdata/fuzz/FuzzUnmarshal holds the pinned bodies of the
// wire-format tests, one chunk each.
func FuzzUnmarshal(f *testing.F) {
	ms := mirrors(f)
	// Per mirror, the input it saw last.
	prev := make([][]byte, len(ms))
	f.Add(uint8(5), []byte{2, 1, 'a', 0})                       // Names_t: ["a", ""]
	f.Add(uint8(5), []byte{0x81, 0x00, 1, 'a'})                 // a non-minimal length
	f.Add(uint8(4), []byte{0xff, 0xff, 0x0f, 0})                // Offers_t claiming 262143 offers
	f.Add(uint8(1), []byte{1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 9}) // NaN charge, ordinal out of range
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		k := int(which) % len(ms)
		m := ms[k]
		text := string(data)
		dirty, dirtiedBy := m.new(), prev[k]
		_ = DecodeInto(m.typ, dirtiedBy, dirty) // an error leaves it dirty too
		prev[k] = bytes.Clone(data)
		reusedErr := DecodeInto(m.typ, text, dirty)
		var v, vText *Value
		err := proportionate(t, len(data), m.typ.String(), func() (err error) {
			v, err = Unmarshal(m.typ, data)
			return err
		})
		textErr := proportionate(t, len(data), m.typ.String(), func() (err error) {
			vText, err = Unmarshal(m.typ, text)
			return err
		})
		dst, dstText := m.new(), m.new()
		bindErr := proportionate(t, len(data), m.typ.String(), func() error { return DecodeInto(m.typ, data, dst) })
		bindTextErr := proportionate(t, len(data), m.typ.String(), func() error { return DecodeInto(m.typ, text, dstText) })
		discardErr := DecodeInto(m.typ, data, nil)
		discardTextErr := DecodeInto(m.typ, text, nil)
		for _, other := range []error{textErr, bindErr, bindTextErr, discardErr, discardTextErr, reusedErr} {
			if (err == nil) != (other == nil) {
				t.Fatalf("%s: Unmarshal says %v, of a string %v; DecodeInto %v, of a string %v, reused %v; discarding %v, of a string %v",
					m.typ, err, textErr, bindErr, bindTextErr, reusedErr, discardErr, discardTextErr)
			}
		}
		if err != nil {
			return
		}
		// %#v, not reflect.DeepEqual: a NaN is not equal to itself. It
		// tells nil from empty, as DeepEqual does.
		if got, want := fmt.Sprintf("%#v", dirty), fmt.Sprintf("%#v", dstText); got != want {
			t.Fatalf("%s: decoded into a destination dirty with %x as %s, into a fresh one as %s", m.typ, dirtiedBy, got, want)
		}
		if !vText.Equal(v) {
			t.Fatalf("%s: decoded as %s from bytes, as %s from a string", m.typ, v, vText)
		}
		// Equal, not the same bytes: a non-minimal varint decodes and
		// re-encodes shorter.
		back, err := Unmarshal(m.typ, Marshal(v))
		if err != nil || !back.Equal(v) {
			t.Fatalf("%s: %s re-encoded and decoded as %s, %v", m.typ, v, back, err)
		}
		enc, err := AppendEncode(nil, m.typ, dst)
		if err != nil {
			t.Fatalf("%s: AppendEncode(%+v): %v", m.typ, dst, err)
		}
		if bound, err := Unmarshal(m.typ, enc); err != nil || !bound.Equal(v) {
			t.Fatalf("%s: %s bound to Go and back is %s, %v", m.typ, v, bound, err)
		}
		// The same bytes, not Equal: both Go values were bound from one
		// input, so they encode alike down to a NaN's payload.
		if encText, err := AppendEncode(nil, m.typ, dstText); err != nil || !bytes.Equal(encText, enc) {
			t.Fatalf("%s: bound from bytes %+v, from a string %+v, %v", m.typ, dst, dstText, err)
		}
	})
}

// proportionate runs decode and fails the test if it allocated out of
// proportion to n bytes of input. A decoded node costs under 200 bytes
// and at least one of input; the constant covers what the runtime itself
// allocates meanwhile. TotalAlloc counts the whole process, so a breach
// has to reproduce: a decode that really is out of proportion is so
// every time, what another goroutine allocated meanwhile is not.
func proportionate(t *testing.T, n int, what string, decode func() error) error {
	for try, limit := 0, 1<<16+512*uint64(n); ; try++ {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		err := decode()
		runtime.ReadMemStats(&after)
		grew := after.TotalAlloc - before.TotalAlloc
		if grew <= limit {
			return err
		}
		if try == 2 {
			t.Fatalf("decoding %d bytes as %s allocated %d, three times over", n, what, grew)
		}
	}
}
