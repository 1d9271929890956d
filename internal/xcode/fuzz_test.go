package xcode_test

import (
	"runtime"
	"testing"

	. "cosm/internal/xcode"
)

// FuzzUnmarshal: argument and result bodies come off the network, typed
// by a SID that came off the network too, so decoding must refuse damage
// with an error — never a panic, never memory out of proportion to the
// input (a sequence of void once turned 602 bytes into 7.6 GB) — and
// whatever does decode must survive its own encoding and bind to Go
// types without a panic. The first argument picks the type from
// mirrors(); the corpus under testdata/fuzz/FuzzUnmarshal holds the
// pinned bodies of the trader's and the car rental server's wire-format
// tests, one chunk each.
func FuzzUnmarshal(f *testing.F) {
	ms := mirrors(f)
	f.Add(uint8(5), []byte{2, 1, 'a', 0})                       // Names_t: ["a", ""]
	f.Add(uint8(5), []byte{0x81, 0x00, 1, 'a'})                 // a non-minimal length
	f.Add(uint8(4), []byte{0xff, 0xff, 0x0f, 0})                // Offers_t claiming 262143 offers
	f.Add(uint8(1), []byte{1, 0x7f, 0xf8, 0, 0, 0, 0, 0, 1, 9}) // NaN charge, ordinal out of range
	f.Fuzz(func(t *testing.T, which uint8, data []byte) {
		m := ms[int(which)%len(ms)]
		// A decoded node costs under 200 bytes and at least one of input;
		// the constant covers what the runtime itself allocates meanwhile.
		// TotalAlloc counts the whole process, so a breach has to
		// reproduce: a decode that really is out of proportion is so every
		// time, what another goroutine allocated meanwhile is not.
		var v *Value
		var err error
		for try, limit := 0, 1<<16+512*uint64(len(data)); ; try++ {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			v, err = Unmarshal(m.typ, data)
			runtime.ReadMemStats(&after)
			grew := after.TotalAlloc - before.TotalAlloc
			if grew <= limit {
				break
			}
			if try == 2 {
				t.Fatalf("decoding %d bytes as %s allocated %d, three times over", len(data), m.typ, grew)
			}
		}
		if err != nil {
			return
		}
		// Equal, not the same bytes: a non-minimal varint decodes and
		// re-encodes shorter.
		back, err := Unmarshal(m.typ, Marshal(v))
		if err != nil || !back.Equal(v) {
			t.Fatalf("%s: %s re-encoded and decoded as %s, %v", m.typ, v, back, err)
		}
		dst := m.new()
		if err := Decode(v, dst); err != nil {
			t.Fatalf("%s: Decode(%s): %v", m.typ, v, err)
		}
		if bound, err := Encode(m.typ, dst); err != nil || !bound.Equal(v) {
			t.Fatalf("%s: %s bound to Go and back is %s, %v", m.typ, v, bound, err)
		}
	})
}
