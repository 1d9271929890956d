package xcode_test

import (
	"bytes"
	"errors"
	"math/rand"
	"runtime"
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

// Property: a random value of a mirrored type decodes into its mirror
// and encodes back to an equal value and the same bytes — the binder
// neither loses nor invents anything the type declares.
func TestBindRoundTripProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for _, m := range mirrors(t) {
		for i := 0; i < 200; i++ {
			v := Random(rng, m.typ)
			dst := m.new()
			if err := Decode(v, dst); err != nil {
				t.Fatalf("%s: Decode(%s): %v", m.typ, v, err)
			}
			back, err := Encode(m.typ, dst)
			if err != nil {
				t.Fatalf("%s: Encode(%+v): %v", m.typ, dst, err)
			}
			if !back.Equal(v) {
				t.Fatalf("%s: round trip\n got %s\nwant %s", m.typ, back, v)
			}
			if !bytes.Equal(Marshal(back), Marshal(v)) {
				t.Fatalf("%s: round trip changed the encoding of %s", m.typ, v)
			}
		}
	}
}

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

	// Encode towards an older peer drops what its type does not declare.
	v, err := Encode(oldT, full)
	if err != nil {
		t.Fatal(err)
	}
	if len(v.Fields) != 2 || v.Fields[0].Str != "n" || v.Fields[1].Int != 3 {
		t.Fatalf("Encode onto the old type = %s", v)
	}
	// Encode towards a type with members no Go field binds to zeroes them.
	type older struct{ Name string }
	v, err = Encode(newT, older{Name: "n"})
	if err != nil {
		t.Fatal(err)
	}
	if want := Zero(newT); v.Fields[0].Str != "n" || !v.Fields[1].Equal(want.Fields[1]) || !v.Fields[3].Equal(want.Fields[3]) {
		t.Fatalf("Encode with missing Go fields = %s", v)
	}

	// Decode ignores members no Go field binds to...
	newV, err := Encode(newT, full)
	if err != nil {
		t.Fatal(err)
	}
	var o older
	if err := Decode(newV, &o); err != nil || o.Name != "n" {
		t.Fatalf("Decode into fewer fields = %+v, %v", o, err)
	}
	// ...resets what it decodes into, and leaves unexported fields alone...
	got := current{Name: "stale", Grade: "stale", hidden: 4}
	if err := Decode(newV, &got); err != nil {
		t.Fatal(err)
	}
	if want := (current{Name: "n", Count: 3, PeerID: "p", Grade: "exact"}); got != want {
		t.Fatalf("Decode = %+v, want %+v", got, want)
	}
	// ...demands a member for every Go field...
	type wantsPeer struct {
		Name   string
		PeerID string
	}
	oldV, err := Encode(oldT, full)
	if err != nil {
		t.Fatal(err)
	}
	if err := Decode(oldV, new(wantsPeer)); !errors.Is(err, ErrNoSuchField) {
		t.Fatalf("Decode of a required field the peer lacks = %v, want ErrNoSuchField", err)
	}
	// ...except the ones tagged optional, which stay zero.
	type optionalGrade struct {
		Name  string
		Grade string `sidl:",optional"`
	}
	og := optionalGrade{Grade: "stale"}
	if err := Decode(oldV, &og); err != nil || og != (optionalGrade{Name: "n"}) {
		t.Fatalf("Decode of an optional field the peer lacks = %+v, %v", og, err)
	}

	// A tag names the member exactly; a Go name matches any case.
	type tagged struct {
		Label string `sidl:"name"`
		COUNT int
	}
	var tg tagged
	if err := Decode(oldV, &tg); err != nil || tg != (tagged{Label: "n", COUNT: 3}) {
		t.Fatalf("Decode by tag = %+v, %v", tg, err)
	}
	type wrongCaseTag struct {
		Label string `sidl:"NAME"`
	}
	if err := Decode(oldV, new(wrongCaseTag)); !errors.Is(err, ErrNoSuchField) {
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
		"string for long long":    {int64T, "7"},
		"integer for string":      {strT, 7},
		"float for long long":     {int64T, 7.5},
		"struct for sequence":     {seqT, struct{ A int }{1}},
		"slice for struct":        {recT, []int{1}},
		"wrong member kind":       {recT, struct{ A string }{"x"}},
		"wrong element kind":      {seqT, []int{1}},
		"string for Object":       {sidl.Basic(sidl.SvcRef), "cosm://x/y"},
		"nil for string":          {strT, nil},
		"nil pointer for struct":  {recT, (*struct{ A int })(nil)},
		"bool for enum":           {enumT, true},
		"map for struct":          {recT, map[string]int{"a": 1}},
		"reference for boolean":   {sidl.Basic(sidl.Bool), ref.New("tcp:x:1", "s")},
		"integer for double":      {sidl.Basic(sidl.Float64), 7},
		"string for unsigned":     {sidl.Basic(sidl.UInt32), "7"},
		"array-less byte payload": {strT, []byte("raw")},
		"a value for void":        {sidl.Basic(sidl.Void), 1},
	} {
		if _, err := Encode(c.t, c.src); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("Encode %s = %v, want ErrTypeMismatch", name, err)
		}
	}
	if _, err := Encode(sidl.Basic(sidl.Void), nil); err != nil {
		t.Errorf("Encode(nil) as void = %v", err)
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
			err := Decode(v, dst())
			// (A struct does bind to the Go struct ref.ServiceRef is, and
			// then lacks its fields.)
			mismatch := errors.Is(err, ErrTypeMismatch) || typ.Kind == sidl.Struct && errors.Is(err, ErrNoSuchField)
			if want := accepts[typ.Kind] == i; want != (err == nil) || (err != nil && !mismatch) {
				t.Errorf("Decode of %s into %T = %v", typ, dst(), err)
			}
		}
	}
	// Enums take a literal or an ordinal and refuse what is neither.
	for _, bad := range []any{"C", 2, -1, uint8(9)} {
		if _, err := Encode(enumT, bad); !errors.Is(err, ErrBadLiteral) {
			t.Errorf("Encode(%v) as enum = %v, want ErrBadLiteral", bad, err)
		}
	}
	for _, good := range []any{"B", 1, uint8(1)} {
		if v, err := Encode(enumT, good); err != nil || v.Ord != 1 {
			t.Errorf("Encode(%v) as enum = %v, %v", good, v, err)
		}
	}
	var lit string
	var ord uint8
	b, _ := NewEnum(enumT, "B")
	if err := Decode(b, &lit); err != nil || lit != "B" {
		t.Errorf("Decode enum as literal = %q, %v", lit, err)
	}
	if err := Decode(b, &ord); err != nil || ord != 1 {
		t.Errorf("Decode enum as ordinal = %d, %v", ord, err)
	}
}

// TestBindTopLevelValues: operation arguments are mostly bare scalars
// and references handed over by value — unaddressable as far as reflect
// is concerned.
func TestBindTopLevelValues(t *testing.T) {
	target := ref.New("tcp:10.0.0.1:7000", "svc")
	v, err := Encode(sidl.Basic(sidl.SvcRef), target)
	if err != nil || v.Ref != target {
		t.Fatalf("Encode(ref) = %v, %v", v, err)
	}
	if v, err = Encode(sidl.Basic(sidl.SvcRef), &target); err != nil || v.Ref != target {
		t.Fatalf("Encode(&ref) = %v, %v", v, err)
	}
	var back ref.ServiceRef
	if err := Decode(v, &back); err != nil || back != target {
		t.Fatalf("Decode(ref) = %v, %v", back, err)
	}
	// uint64 travels as long long and comes back whole.
	const epoch = uint64(1)<<63 + 5
	if v, err = Encode(sidl.Basic(sidl.Int64), epoch); err != nil || v.Int != int64(-1<<63+5) {
		t.Fatalf("Encode(uint64) as long long = %v, %v", v, err)
	}
	var e uint64
	if err := Decode(v, &e); err != nil || e != epoch {
		t.Fatalf("Decode(long long) as uint64 = %d, %v", e, err)
	}
	type named string
	if v, err = Encode(sidl.Basic(sidl.String), named("closed")); err != nil || v.Str != "closed" {
		t.Fatalf("Encode(named string) = %v, %v", v, err)
	}
	if v, err = Encode(sidl.SequenceOf(sidl.Basic(sidl.String)), []string(nil)); err != nil || len(v.Elems) != 0 {
		t.Fatalf("Encode(nil slice) = %v, %v", v, err)
	}
	// Decode needs somewhere to store.
	for _, dst := range []any{"", 7, target, nil, (*string)(nil)} {
		if err := Decode(NewString(sidl.Basic(sidl.String), "x"), dst); !errors.Is(err, ErrTypeMismatch) {
			t.Errorf("Decode into %T = %v, want ErrTypeMismatch", dst, err)
		}
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
		v, err := Encode(typ, []offer{{ID: "o", Props: []prop{{Name: "n"}}}})
		if err != nil {
			t.Fatal(err)
		}
		if err := Decode(v, new([]offer)); err != nil {
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
