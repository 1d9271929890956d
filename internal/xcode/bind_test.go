package xcode_test

import (
	"bytes"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"testing"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	. "cosm/internal/xcode"
)

// Go mirrors of the car rental server's types (sidl.CarRentalIDL) and of
// the trader's (trader.IDL): what a typed client or server of either
// would declare. Enums bind as their literal or as their ordinal.
type (
	selectCar struct {
		Model       string
		BookingDate string
		Days        int32
	}
	selectCarReturn struct {
		Available bool
		Charge    float64
		Currency  uint8 // the ordinal
	}
	bookCarReturn struct {
		OK           bool
		Confirmation string
	}

	prop  struct{ Name, Kind, Text string }
	offer struct {
		ID          string
		ServiceType string
		Target      ref.ServiceRef
		Props       []prop
		ExpiresUnix int64   `sidl:",optional"`
		Suspect     bool    `sidl:",optional"`
		Grade       string  `sidl:",optional"`
		Score       float64 `sidl:",optional"`
	}
	exportItem struct {
		Type  string         `sidl:"serviceType"`
		Ref   ref.ServiceRef `sidl:"target"`
		Props []prop
		TTL   int64 `sidl:"ttlSeconds"`
	}
	importReq struct {
		ServiceType string
		Constraint  string
		Policy      string
		Max         int
		HopLimit    int
		MaxPeers    int32
		HedgeMs     int64
		MinGrade    string
		Visited     []string
	}
	linkInfo struct {
		Name, PeerID, State string
		LastSeenUnixMs      int64
		Hops, SummaryTypes  int
		SummaryGen          uint64
		SummaryAgeMs        int64
	}
	summaryEntry struct {
		ServiceType string
		Count, Hops int
	}
	summary struct {
		From    string
		Gen     uint64
		Entries []summaryEntry
	}
	replRecord struct {
		Seq     uint64
		Payload string
	}
	replBatch struct {
		Epoch, LastSeq, SnapshotSeq uint64
		Snapshot                    string
		Records                     []replRecord
	}
	replStatus struct {
		Role                    string
		Epoch, LastSeq, Applied uint64
		Leader                  string
	}
	vote struct {
		Granted        bool
		Role           string
		Epoch, Applied uint64
		Leader         string
		VoteEpoch      uint64
	}
)

// mirror pairs a named type of a SID with a fresh Go value to bind it to.
type mirror struct {
	typ *sidl.Type
	new func() any
}

// mirrors lists, for both SIDs, every named type a Go mirror exists for.
// The order is part of FuzzUnmarshal's corpus format: append only.
func mirrors(t testing.TB) []mirror {
	t.Helper()
	traderSID, err := sidl.Parse(trader.IDL)
	if err != nil {
		t.Fatal(err)
	}
	carSID := sidl.CarRentalSID()
	var out []mirror
	add := func(sid *sidl.SID, name string, new func() any) {
		typ := sid.Type(name)
		if typ == nil {
			t.Fatalf("no type %s in %s", name, sid.ServiceName)
		}
		out = append(out, mirror{typ, new})
	}
	add(carSID, "SelectCar_t", func() any { return new(selectCar) })
	add(carSID, "SelectCarReturn_t", func() any { return new(selectCarReturn) })
	add(carSID, "BookCarReturn_t", func() any { return new(bookCarReturn) })
	add(traderSID, "Props_t", func() any { return new([]prop) })
	add(traderSID, "Offers_t", func() any { return new([]offer) })
	add(traderSID, "Names_t", func() any { return new([]string) })
	add(traderSID, "ExportItems_t", func() any { return new([]exportItem) })
	add(traderSID, "ImportReq_t", func() any { return new(importReq) })
	add(traderSID, "LinkInfos_t", func() any { return new([]linkInfo) })
	add(traderSID, "Summary_t", func() any { return new(summary) })
	add(traderSID, "ReplBatch_t", func() any { return new(replBatch) })
	add(traderSID, "ReplStatus_t", func() any { return new(replStatus) })
	add(traderSID, "Vote_t", func() any { return new(vote) })
	return out
}

// Property: the encoding of a random value of a mirrored type decodes
// into its mirror and encodes back to the same bytes — the binder
// neither loses nor invents anything the type declares.
func TestBindRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range mirrors(t) {
		for i := 0; i < 200; i++ {
			v := Random(rng, m.typ)
			data := Marshal(v)
			dst := m.new()
			if err := DecodeInto(m.typ, data, dst); err != nil {
				t.Fatalf("%s: DecodeInto(%s): %v", m.typ, v, err)
			}
			back, err := AppendEncode(nil, m.typ, dst)
			if err != nil {
				t.Fatalf("%s: AppendEncode(%+v): %v", m.typ, dst, err)
			}
			if !bytes.Equal(back, data) {
				t.Fatalf("%s: round trip changed the encoding of %s", m.typ, v)
			}
		}
	}
}

// encodeValue is AppendEncode composed with Unmarshal: the dynamic value
// a typed encoder puts on the wire.
func encodeValue(t *testing.T, typ *sidl.Type, src any) *Value {
	t.Helper()
	data, err := AppendEncode(nil, typ, src)
	if err != nil {
		t.Fatalf("AppendEncode(%+v) as %s: %v", src, typ, err)
	}
	v, err := Unmarshal(typ, data)
	if err != nil {
		t.Fatalf("Unmarshal of AppendEncode(%+v) as %s: %v", src, typ, err)
	}
	return v
}

// decodeValue is DecodeInto of a dynamic value's encoding.
func decodeValue(v *Value, dst any) error { return DecodeInto(v.Type, Marshal(v), dst) }

func TestBindStructFields(t *testing.T) {
	strT, int32T := sidl.Basic(sidl.String), sidl.Basic(sidl.Int32)
	oldT := sidl.StructOf("Old_t", sidl.Field{Name: "name", Type: strT}, sidl.Field{Name: "count", Type: int32T})
	newT := sidl.StructOf("New_t", sidl.Field{Name: "name", Type: strT}, sidl.Field{Name: "count", Type: int32T},
		sidl.Field{Name: "peerId", Type: strT}, sidl.Field{Name: "grade", Type: strT})

	type current struct {
		Name   string
		Count  int
		PeerID string
		Grade  string `sidl:",optional"`
		hidden int    //nolint:unused // unexported: the binder must not touch it
	}
	full := current{Name: "n", Count: 3, PeerID: "p", Grade: "exact", hidden: 9}

	// Encoding towards an older peer drops what its type does not declare.
	v := encodeValue(t, oldT, full)
	if len(v.Fields) != 2 || v.Fields[0].Str != "n" || v.Fields[1].Int != 3 {
		t.Fatalf("AppendEncode onto the old type = %s", v)
	}
	// Encoding towards a type with members no Go field binds to zeroes them.
	type older struct{ Name string }
	v = encodeValue(t, newT, older{Name: "n"})
	if want := Zero(newT); v.Fields[0].Str != "n" || !v.Fields[1].Equal(want.Fields[1]) || !v.Fields[3].Equal(want.Fields[3]) {
		t.Fatalf("AppendEncode with missing Go fields = %s", v)
	}

	// DecodeInto skips members no Go field binds to...
	newV := encodeValue(t, newT, full)
	var o older
	if err := decodeValue(newV, &o); err != nil || o.Name != "n" {
		t.Fatalf("DecodeInto fewer fields = %+v, %v", o, err)
	}
	// ...resets what it decodes into, and leaves unexported fields alone...
	got := current{Name: "stale", Grade: "stale", hidden: 4}
	if err := decodeValue(newV, &got); err != nil {
		t.Fatal(err)
	}
	if want := (current{Name: "n", Count: 3, PeerID: "p", Grade: "exact"}); got != want {
		t.Fatalf("DecodeInto = %+v, want %+v", got, want)
	}
	// ...demands a member for every Go field...
	type wantsPeer struct {
		Name   string
		PeerID string
	}
	oldV := encodeValue(t, oldT, full)
	if err := decodeValue(oldV, new(wantsPeer)); !errors.Is(err, ErrNoSuchField) {
		t.Fatalf("DecodeInto a required field the peer lacks = %v, want ErrNoSuchField", err)
	}
	// ...except the ones tagged optional, which stay zero.
	type optionalGrade struct {
		Name  string
		Grade string `sidl:",optional"`
	}
	og := optionalGrade{Grade: "stale"}
	if err := decodeValue(oldV, &og); err != nil || og != (optionalGrade{Name: "n"}) {
		t.Fatalf("DecodeInto an optional field the peer lacks = %+v, %v", og, err)
	}

	// A tag names the member exactly; a Go name matches any case.
	type tagged struct {
		Label string `sidl:"name"`
		COUNT int
	}
	var tg tagged
	if err := decodeValue(oldV, &tg); err != nil || tg != (tagged{Label: "n", COUNT: 3}) {
		t.Fatalf("DecodeInto by tag = %+v, %v", tg, err)
	}
	type wrongCaseTag struct {
		Label string `sidl:"NAME"`
	}
	if err := decodeValue(oldV, new(wrongCaseTag)); !errors.Is(err, ErrNoSuchField) {
		t.Fatalf("a tag must match exactly, got %v", err)
	}
}

func TestBindKindMismatch(t *testing.T) {
	strT, int64T := sidl.Basic(sidl.String), sidl.Basic(sidl.Int64)
	recT := sidl.StructOf("R", sidl.Field{Name: "a", Type: int64T})
	seqT := sidl.SequenceOf(strT)
	enumT := sidl.EnumOf("E", "A", "B")
	for name, c := range map[string]struct {
		t   *sidl.Type
		src any
	}{
		"string for long long":   {int64T, "7"},
		"integer for string":     {strT, 7},
		"float for long long":    {int64T, 7.5},
		"struct for sequence":    {seqT, struct{ A int }{1}},
		"slice for struct":       {recT, []int{1}},
		"wrong member kind":      {recT, struct{ A string }{"x"}},
		"wrong element kind":     {seqT, []int{1}},
		"string for Object":      {sidl.Basic(sidl.SvcRef), "cosm://x/y"},
		"nil for string":         {strT, nil},
		"nil pointer for struct": {recT, (*struct{ A int })(nil)},
		"bool for enum":          {enumT, true},
		"map for struct":         {recT, map[string]int{"a": 1}},
		"reference for boolean":  {sidl.Basic(sidl.Bool), ref.New("tcp:x:1", "s")},
		"integer for double":     {sidl.Basic(sidl.Float64), 7},
		"string for unsigned":    {sidl.Basic(sidl.UInt32), "7"},
		"rune slice for string":  {strT, []rune("raw")},
		"a value for void":       {sidl.Basic(sidl.Void), 1},
	} {
		if _, err := AppendEncode(nil, c.t, c.src); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("AppendEncode %s = %v, want ErrTypeMismatch", name, err)
		}
	}
	if data, err := AppendEncode(nil, sidl.Basic(sidl.Void), nil); err != nil || len(data) != 0 {
		t.Errorf("AppendEncode(nil) as void = %x, %v", data, err)
	}
	// The same from the other side: a peer's SID declaring another kind
	// than the Go field has is an error, never a panic.
	rng := rand.New(rand.NewSource(3))
	dsts := []func() any{
		func() any { return new(string) }, func() any { return new(int) }, func() any { return new(float64) },
		func() any { return new(bool) }, func() any { return new(ref.ServiceRef) }, func() any { return new([]string) },
		func() any { return new(struct{ A int64 }) }, func() any { return new(map[string]int) },
	}
	accepts := map[sidl.Kind]int{sidl.String: 0, sidl.Int64: 1, sidl.Float64: 2, sidl.Bool: 3, sidl.SvcRef: 4, sidl.Sequence: 5, sidl.Struct: 6}
	for _, typ := range []*sidl.Type{strT, int64T, sidl.Basic(sidl.Float64), sidl.Basic(sidl.Bool), sidl.Basic(sidl.SvcRef), seqT, recT} {
		v := Random(rng, typ)
		for i, dst := range dsts {
			err := decodeValue(v, dst())
			// (A struct does bind to the Go struct ref.ServiceRef is, and
			// then lacks its fields.)
			mismatch := errors.Is(err, ErrTypeMismatch) || typ.Kind == sidl.Struct && errors.Is(err, ErrNoSuchField)
			if want := accepts[typ.Kind] == i; want != (err == nil) || (err != nil && !mismatch) {
				t.Errorf("DecodeInto of %s into %T = %v", typ, dst(), err)
			}
		}
	}
	if err := DecodeInto(sidl.Basic(sidl.Void), "", new(int)); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("DecodeInto of void into a Go value = %v, want ErrTypeMismatch", err)
	}
	// Enums take a literal or an ordinal and refuse what is neither.
	for _, bad := range []any{"C", 2, -1, uint8(9)} {
		if _, err := AppendEncode(nil, enumT, bad); !errors.Is(err, ErrBadLiteral) {
			t.Errorf("AppendEncode(%v) as enum = %v, want ErrBadLiteral", bad, err)
		}
	}
	for _, good := range []any{"B", 1, uint8(1)} {
		if data, err := AppendEncode(nil, enumT, good); err != nil || !bytes.Equal(data, []byte{1}) {
			t.Errorf("AppendEncode(%v) as enum = %x, %v", good, data, err)
		}
	}
	var lit string
	var ord uint8
	if err := DecodeInto(enumT, []byte{1}, &lit); err != nil || lit != "B" {
		t.Errorf("DecodeInto enum as literal = %q, %v", lit, err)
	}
	if err := DecodeInto(enumT, []byte{1}, &ord); err != nil || ord != 1 {
		t.Errorf("DecodeInto enum as ordinal = %d, %v", ord, err)
	}
}

// TestBindIntegerRange: a Go integer binds to a SIDL integer only where
// it fits, in either direction — no silent narrowing — except that a Go
// integer exactly as wide as the SIDL kind crosses signedness as a bit
// cast, the way uint64 epochs travel as long long.
func TestBindIntegerRange(t *testing.T) {
	octetT, shortT, longT := sidl.Basic(sidl.Octet), sidl.Basic(sidl.Int16), sidl.Basic(sidl.Int32)
	llT, ulT, ullT := sidl.Basic(sidl.Int64), sidl.Basic(sidl.UInt32), sidl.Basic(sidl.UInt64)
	for _, c := range []struct {
		t    *sidl.Type
		src  any
		want string // the encoding in hex, "" for ErrTypeMismatch
	}{
		{octetT, int64(1<<32 + 5), ""}, {shortT, int64(1<<32 + 5), ""}, {longT, int64(1<<32 + 5), ""},
		{octetT, 255, "ff"}, {octetT, 256, ""}, {octetT, -1, ""}, {octetT, int8(-1), "ff"}, {octetT, uint16(255), "ff"},
		{shortT, int16(-1 << 15), "8000"}, {shortT, int32(1 << 15), ""}, {shortT, uint16(1 << 15), "8000"}, {shortT, uint32(1 << 15), ""},
		{longT, -1 << 31, "80000000"}, {longT, 1 << 31, ""}, {longT, uint32(1<<32 - 1), "ffffffff"}, {longT, uint64(1 << 31), ""},
		{llT, uint64(1<<63 + 5), "8000000000000005"}, {llT, -1, "ffffffffffffffff"}, {llT, uint32(1<<32 - 1), "00000000ffffffff"},
		{ulT, -1, ""}, {ulT, int32(-1), "ffffffff"}, {ulT, uint(1 << 32), ""}, {ulT, 1<<32 - 1, "ffffffff"},
		{ullT, int64(-1), "ffffffffffffffff"}, {ullT, int32(-1), ""}, {ullT, uint64(1 << 63), "8000000000000000"},
	} {
		data, err := AppendEncode(nil, c.t, c.src)
		if c.want == "" {
			if !errors.Is(err, ErrTypeMismatch) {
				t.Errorf("AppendEncode(%T %v) as %s = %x, %v; want ErrTypeMismatch", c.src, c.src, c.t, data, err)
			}
		} else if err != nil || hex.EncodeToString(data) != c.want {
			t.Errorf("AppendEncode(%T %v) as %s = %x, %v; want %s", c.src, c.src, c.t, data, err, c.want)
		}
	}

	// The other direction: the wire value, as its kind means it, must fit
	// the Go field.
	for _, c := range []struct {
		t    *sidl.Type
		data string
		dst  any
		want any // nil for ErrTypeMismatch
	}{
		{llT, "0000010000000000", new(int32), nil}, {llT, "0000010000000000", new(int), 1 << 40},
		{llT, "ffffffffffffffff", new(uint32), nil}, {llT, "ffffffffffffffff", new(uint64), uint64(1<<64 - 1)},
		{llT, "8000000000000005", new(uint64), uint64(1<<63 + 5)},
		{longT, "ffffffff", new(uint32), uint32(1<<32 - 1)}, {longT, "ffffffff", new(uint16), nil}, {longT, "ffffffff", new(int8), int8(-1)},
		{longT, "ffffffff", new(uint64), nil}, {longT, "80000000", new(int16), nil},
		{ullT, "8000000000000000", new(int64), int64(-1 << 63)}, {ullT, "8000000000000000", new(int32), nil},
		{ullT, "00000000ffffffff", new(uint32), uint32(1<<32 - 1)},
		{ulT, "ffffffff", new(int32), int32(-1)}, {ulT, "ffffffff", new(int64), int64(1<<32 - 1)}, {ulT, "ffffffff", new(int16), nil},
		{octetT, "ff", new(int8), int8(-1)}, {octetT, "ff", new(uint8), uint8(255)}, {octetT, "ff", new(int16), int16(255)},
		{shortT, "012c", new(uint8), nil}, {shortT, "012c", new(int8), nil}, {shortT, "ff38", new(int8), nil}, {shortT, "ff38", new(uint16), uint16(0xff38)},
	} {
		data, _ := hex.DecodeString(c.data)
		err := DecodeInto(c.t, data, c.dst)
		got := reflect.ValueOf(c.dst).Elem().Interface()
		if c.want == nil {
			if !errors.Is(err, ErrTypeMismatch) {
				t.Errorf("DecodeInto(%s %s) into %T = %v, %v; want ErrTypeMismatch", c.t, c.data, c.dst, got, err)
			}
		} else if err != nil || got != reflect.ValueOf(c.want).Convert(reflect.TypeOf(got)).Interface() {
			t.Errorf("DecodeInto(%s %s) into %T = %v, %v; want %v", c.t, c.data, c.dst, got, err, c.want)
		}
	}

	// What reaches a remote trader is what the caller asked for, or an
	// error: a limit of 2^32+5 once arrived as max 5.
	traderSID, err := sidl.Parse(trader.IDL)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := AppendEncode(nil, traderSID.Type("ImportReq_t"), importReq{Max: 1<<32 + 5}); !errors.Is(err, ErrTypeMismatch) {
		t.Errorf("an import limit of 2^32+5 encodes as long: %v", err)
	}
}

// TestBindBytesAsString: a Go byte slice binds to a SIDL string both
// ways, to the bytes a Go string of the same content has, under the
// same length limit; the empty string decodes as nil.
func TestBindBytesAsString(t *testing.T) {
	strT := sidl.Basic(sidl.String)
	recT := sidl.StructOf("R", sidl.Field{Name: "seq", Type: sidl.Basic(sidl.Int64)}, sidl.Field{Name: "payload", Type: strT})
	type rec struct {
		Seq     uint64
		Payload []byte
	}
	type text struct {
		Seq     uint64
		Payload string
	}
	data, err := AppendEncode(nil, recT, rec{Seq: 7, Payload: []byte("raw\x00")})
	if err != nil {
		t.Fatal(err)
	}
	if want, _ := AppendEncode(nil, recT, text{Seq: 7, Payload: "raw\x00"}); !bytes.Equal(data, want) {
		t.Fatalf("[]byte encodes as %x, string as %x", data, want)
	}
	var got rec
	if err := DecodeInto(recT, data, &got); err != nil || got.Seq != 7 || string(got.Payload) != "raw\x00" {
		t.Fatalf("DecodeInto = %+v, %v", got, err)
	}
	data[len(data)-1] = 'x' // the decoded bytes are a copy
	if string(got.Payload) != "raw\x00" {
		t.Fatalf("DecodeInto aliased its input: %q", got.Payload)
	}
	empty, err := AppendEncode(nil, recT, rec{})
	if err != nil {
		t.Fatal(err)
	}
	got.Payload = []byte("stale")
	if err := DecodeInto(recT, empty, &got); err != nil || got.Payload != nil {
		t.Fatalf("the empty string decodes as %#v, %v; want nil", got.Payload, err)
	}
	long := binary.AppendUvarint(nil, MaxStringLen+1)
	long = append(long, make([]byte, MaxStringLen+1)...)
	var b []byte
	if err := DecodeInto(strT, long, &b); !errors.Is(err, ErrOversize) || b != nil {
		t.Fatalf("DecodeInto of an oversize string = %d bytes, %v; want ErrOversize", len(b), err)
	}
	// The encoder refuses what the decoder would, for strings and
	// sequences alike: a journal snapshot too large to read back is
	// never written.
	for name, c := range map[string]struct {
		t   *sidl.Type
		src any
	}{
		"[]byte":   {strT, long[3:]},
		"string":   {strT, string(long[3:])},
		"sequence": {sidl.SequenceOf(sidl.Basic(sidl.Bool)), make([]bool, MaxSequenceLen+1)},
	} {
		if _, err := AppendEncode(nil, c.t, c.src); !errors.Is(err, ErrOversize) {
			t.Errorf("AppendEncode of an oversize %s = %v, want ErrOversize", name, err)
		}
	}
}

// TestBindRefWithoutTextRefused: an Object travels as its textual form,
// so a non-nil reference that form cannot carry is refused where it is
// encoded — the sender sees the error, not every receiver of the value.
func TestBindRefWithoutTextRefused(t *testing.T) {
	refT := sidl.Basic(sidl.SvcRef)
	for _, r := range []ref.ServiceRef{{Endpoint: "tcp:10.0.0.1:7000"}, {Service: "svc"}, ref.New("tcp:10.0.0.1:7000", "a/b")} {
		if _, err := AppendEncode(nil, refT, r); !errors.Is(err, ErrBadLiteral) || !errors.Is(err, ref.ErrBadRef) {
			t.Errorf("AppendEncode(%+v) = %v, want ErrBadLiteral and ref.ErrBadRef", r, err)
		}
		if _, err := AppendEncode(nil, sidl.SequenceOf(refT), []ref.ServiceRef{r}); !errors.Is(err, ref.ErrBadRef) {
			t.Errorf("AppendEncode of %+v as an element = %v, want ref.ErrBadRef", r, err)
		}
	}
	if data, err := AppendEncode(nil, refT, ref.ServiceRef{}); err != nil || !bytes.Equal(data, []byte{0}) {
		t.Errorf("the nil reference encodes as %x, %v", data, err)
	}
}

// TestDecodeSequenceClaimBeforeGrow: a sequence length the remaining
// bytes cannot hold is refused before a Go slice is grown for it, at the
// top and nested.
func TestDecodeSequenceClaimBeforeGrow(t *testing.T) {
	traderSID, err := sidl.Parse(trader.IDL)
	if err != nil {
		t.Fatal(err)
	}
	offersT := traderSID.Type("Offers_t")
	top := []byte{0xff, 0xff, 0x0f, 0} // 262143 offers in one byte
	var got []offer
	if err := DecodeInto(offersT, top, &got); !errors.Is(err, ErrBadData) || cap(got) != 0 {
		t.Fatalf("DecodeInto of a %d-byte claim = cap %d, %v", len(top), cap(got), err)
	}
	// One offer whose props claim 262143 records.
	one, err := AppendEncode(nil, offersT, []offer{{ID: "o", Target: ref.New("tcp:10.0.0.1:7000", "s")}})
	if err != nil {
		t.Fatal(err)
	}
	props := bytes.Index(one, []byte("/s")) + 2
	nested := append(append(one[:props:props], 0xff, 0xff, 0x0f), make([]byte, 24)...)
	if err := DecodeInto(offersT, nested, &got); !errors.Is(err, ErrBadData) || len(got) != 1 || cap(got[0].Props) != 0 {
		t.Fatalf("DecodeInto of a nested claim = %+v, %v", got, err)
	}
	if allocs := testing.AllocsPerRun(100, func() { _ = DecodeInto(offersT, top, &got) }); allocs > 8 {
		t.Fatalf("refusing a %d-byte claim allocates %v times", len(top), allocs)
	}
}

// TestBindTopLevelValues: operation arguments are mostly bare scalars
// and references handed over by value — unaddressable as far as reflect
// is concerned.
func TestBindTopLevelValues(t *testing.T) {
	refT, strT := sidl.Basic(sidl.SvcRef), sidl.Basic(sidl.String)
	target := ref.New("tcp:10.0.0.1:7000", "svc")
	for _, src := range []any{target, &target} {
		if v := encodeValue(t, refT, src); v.Ref != target {
			t.Fatalf("AppendEncode(%T) = %v", src, v)
		}
	}
	var back ref.ServiceRef
	if err := DecodeInto(refT, Marshal(NewRef(refT, target)), &back); err != nil || back != target {
		t.Fatalf("DecodeInto(ref) = %v, %v", back, err)
	}
	// uint64 travels as long long and comes back whole.
	const epoch = uint64(1)<<63 + 5
	int64T := sidl.Basic(sidl.Int64)
	if v := encodeValue(t, int64T, epoch); v.Int != int64(-1<<63+5) {
		t.Fatalf("AppendEncode(uint64) as long long = %v", v)
	}
	var e uint64
	if err := DecodeInto(int64T, Marshal(NewInt(int64T, -1<<63+5)), &e); err != nil || e != epoch {
		t.Fatalf("DecodeInto(long long) as uint64 = %d, %v", e, err)
	}
	type named string
	if v := encodeValue(t, strT, named("closed")); v.Str != "closed" {
		t.Fatalf("AppendEncode(named string) = %v", v)
	}
	if v := encodeValue(t, sidl.SequenceOf(strT), []string(nil)); len(v.Elems) != 0 {
		t.Fatalf("AppendEncode(nil slice) = %v", v)
	}
	// DecodeInto needs somewhere to store, or nothing at all: a nil dst
	// only validates.
	x := Marshal(NewString(strT, "x"))
	for _, dst := range []any{"", 7, target, (*string)(nil)} {
		if err := DecodeInto(strT, x, dst); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("DecodeInto into %T = %v, want ErrTypeMismatch", dst, err)
		}
	}
	if err := DecodeInto(strT, x, nil); err != nil {
		t.Errorf("DecodeInto discarding = %v", err)
	}
	if err := DecodeInto(strT, append(x, 0), nil); !errors.Is(err, ErrBadData) {
		t.Errorf("DecodeInto discarding a trailing byte = %v, want ErrBadData", err)
	}
}

// TestBindCacheBoundedByGoTypes: every bind parses a fresh SID, so a
// binder that remembered anything per *sidl.Type would grow by a plan
// per binding for as long as the process lives.
func TestBindCacheBoundedByGoTypes(t *testing.T) {
	bindOnce := func() {
		sid, err := sidl.Parse(trader.IDL)
		if err != nil {
			t.Fatal(err)
		}
		typ := sid.Type("Offers_t")
		data, err := AppendEncode(nil, typ, []offer{{ID: "o", Props: []prop{{Name: "n"}}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := DecodeInto(typ, data, new([]offer)); err != nil {
			t.Fatal(err)
		}
	}
	bindOnce()
	before := PlanCount()
	var m0, m1 runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&m0)
	for i := 0; i < 1000; i++ {
		bindOnce()
	}
	runtime.GC()
	runtime.ReadMemStats(&m1)
	if after := PlanCount(); after != before {
		t.Fatalf("binder cache grew from %d to %d plans over 1000 fresh SIDs", before, after)
	}
	if grew := int64(m1.HeapAlloc) - int64(m0.HeapAlloc); grew > 1<<20 {
		t.Fatalf("1000 fresh SIDs left %d bytes live", grew)
	}
}

// TestDecodeIntoCopiesItsInput: decoded from bytes, nothing DecodeInto
// builds shares them. A journal record or a snapshot is decoded out of
// a buffer its reader goes on to reuse, so a string, a byte slice or a
// reference that aliased it would change under the state built from it.
func TestDecodeIntoCopiesItsInput(t *testing.T) {
	strT := sidl.Basic(sidl.String)
	recT := sidl.StructOf("R",
		sidl.Field{Name: "name", Type: strT},
		sidl.Field{Name: "payload", Type: strT},
		sidl.Field{Name: "target", Type: sidl.Basic(sidl.SvcRef)})
	type rec struct {
		Name    string
		Payload []byte
		Target  ref.ServiceRef
	}
	want := rec{Name: "offer-1", Payload: []byte("raw\x00bytes"), Target: ref.New("tcp:10.0.0.1:7000", "cars")}
	data, err := AppendEncode(nil, recT, want)
	if err != nil {
		t.Fatal(err)
	}
	var got rec
	if err := DecodeInto(recT, data, &got); err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 'x'
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("after its input was overwritten, the decoded value reads %+v, want %+v", got, want)
	}
}

// replyOf returns the trader's Offers_t and a reply of n offers of four
// properties each, encoded as it.
func replyOf(t testing.TB, n int) (*sidl.Type, []offer, []byte) {
	t.Helper()
	sid, err := sidl.Parse(trader.IDL)
	if err != nil {
		t.Fatal(err)
	}
	typ := sid.Type("Offers_t")
	offers := make([]offer, n)
	for i := range offers {
		offers[i] = offer{
			ID: "T/" + strconv.Itoa(i), ServiceType: "CarRentalService",
			Target: ref.New("tcp:10.0.0.1:7000", "car"+strconv.Itoa(i)),
			Props: []prop{
				{"CarModel", "enum", "FIAT_Uno"}, {"ChargePerDay", "float", "50"},
				{"Currency", "enum", "USD"}, {"Mileage", "int", "1200"},
			},
			Grade: "exact", Score: 1,
		}
	}
	data, err := AppendEncode(nil, typ, offers)
	if err != nil {
		t.Fatal(err)
	}
	return typ, offers, data
}

// TestDecodeStringAllocs pins what decoding an import reply of five
// offers of four properties each from a string allocates. Into a fresh
// destination, that is the offer slice and each offer's property slice:
// every string in it (ID, type, target, grade and each property's name,
// kind and text) is a window of the reply; decoded from bytes, each of
// those 80 is a copy of its own. Into a destination that held as large
// a reply, it is nothing: its slices keep their arrays.
func TestDecodeStringAllocs(t *testing.T) {
	typ, offers, data := replyOf(t, 5)
	reply := string(data)
	var got []offer
	fresh := func(decode func() error) func() {
		return func() {
			got = nil
			if err := decode(); err != nil {
				t.Fatal(err)
			}
		}
	}
	fromString := testing.AllocsPerRun(100, fresh(func() error { return DecodeInto(typ, reply, &got) }))
	if !reflect.DeepEqual(got, offers) {
		t.Fatalf("decoded %+v, want %+v", got, offers)
	}
	if fromString != 6 {
		t.Errorf("decoding five offers from a string allocates %v, want 6", fromString)
	}
	fromBytes := testing.AllocsPerRun(100, fresh(func() error { return DecodeInto(typ, data, &got) }))
	if fromBytes != fromString+80 {
		t.Errorf("decoding them from bytes allocates %v, want %v: one copy per string", fromBytes, fromString+80)
	}
	reused := testing.AllocsPerRun(100, func() {
		if err := DecodeInto(typ, reply, &got); err != nil {
			t.Fatal(err)
		}
	})
	if !reflect.DeepEqual(got, offers) {
		t.Fatalf("decoded into a reused destination %+v, want %+v", got, offers)
	}
	if reused != 0 {
		t.Errorf("decoding them from a string into a reused destination allocates %v, want 0", reused)
	}
}

// TestDecodeIntoReusedDestination: a destination reused from reply to
// reply decodes each exactly as a fresh one does, under each revision
// of Offers_t a peer may send: the trader's own; an extended one, the
// §3.1 record subtype whose Offer_t and Prop_t gain members at random
// positions, which the decoder skips; and an older one whose Offer_t
// lacks the optional members, whose Go fields come out zero although
// the reused offers held values in them.
func TestDecodeIntoReusedDestination(t *testing.T) {
	sid, err := sidl.Parse(trader.IDL)
	if err != nil {
		t.Fatal(err)
	}
	base := sid.Type("Offers_t")
	offerT := base.Elem
	propsF, _ := offerT.Field("props")
	rng := rand.New(rand.NewSource(11))
	insert := func(st *sidl.Type, extra ...sidl.Field) *sidl.Type {
		fields := slices.Clone(st.Fields)
		for _, f := range extra {
			fields = slices.Insert(fields, rng.Intn(len(fields)+1), f)
		}
		return sidl.StructOf(st.Name, fields...)
	}
	strT, longT := sidl.Basic(sidl.String), sidl.Basic(sidl.Int32)
	revisions := []struct {
		name string
		typ  func() *sidl.Type
	}{
		{"base", func() *sidl.Type { return base }},
		{"extended", func() *sidl.Type {
			propT := insert(propsF.Type.Elem, sidl.Field{Name: "unit", Type: strT}, sidl.Field{Name: "weight", Type: sidl.Basic(sidl.Float64)})
			fields := slices.Clone(offerT.Fields)
			for i := range fields {
				if fields[i].Name == "props" {
					fields[i].Type = sidl.SequenceOf(propT)
				}
			}
			return sidl.SequenceOf(insert(sidl.StructOf(offerT.Name, fields...),
				sidl.Field{Name: "region", Type: strT}, sidl.Field{Name: "rank", Type: longT},
				sidl.Field{Name: "tags", Type: sidl.SequenceOf(strT)}))
		}},
		{"older", func() *sidl.Type {
			var fields []sidl.Field
			for _, f := range offerT.Fields {
				switch f.Name {
				case "expiresUnix", "suspect", "grade", "score":
				default:
					fields = append(fields, f)
				}
			}
			return sidl.SequenceOf(sidl.StructOf(offerT.Name, fields...))
		}},
	}
	var reused []offer
	for round := 0; round < 100; round++ {
		for _, rev := range revisions {
			typ := rev.typ()
			reply := string(Marshal(Random(rng, typ)))
			var fresh []offer
			if err := DecodeInto(typ, reply, &fresh); err != nil {
				t.Fatalf("round %d, %s: into a fresh destination: %v", round, rev.name, err)
			}
			if err := DecodeInto(typ, reply, &reused); err != nil {
				t.Fatalf("round %d, %s: into a reused destination: %v", round, rev.name, err)
			}
			if !reflect.DeepEqual(reused, fresh) {
				t.Fatalf("round %d, %s: into a reused destination %+v, into a fresh one %+v", round, rev.name, reused, fresh)
			}
			if rev.name != "older" {
				continue
			}
			for i, o := range reused {
				if o.ExpiresUnix != 0 || o.Suspect || o.Grade != "" || o.Score != 0 {
					t.Fatalf("round %d: offer %d of an older peer reads optional members %+v", round, i, o)
				}
			}
		}
	}
}

// BenchmarkDecodeOffers decodes an import reply of 16 offers of four
// properties each from a string, as a client does: into a fresh
// destination, and into one that held the previous reply.
func BenchmarkDecodeOffers(b *testing.B) {
	typ, _, data := replyOf(b, 16)
	reply := string(data)
	for _, reuse := range []bool{false, true} {
		name := "fresh"
		if reuse {
			name = "reused"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			var got []offer
			for b.Loop() {
				if !reuse {
					got = nil
				}
				if err := DecodeInto(typ, reply, &got); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
