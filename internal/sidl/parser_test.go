package sidl

import (
	"errors"
	"strings"
	"testing"

	"cosm/internal/fsm"
)

func TestParseCarRental(t *testing.T) {
	sid := CarRentalSID()

	if sid.ServiceName != "CarRentalService" {
		t.Fatalf("ServiceName = %q", sid.ServiceName)
	}
	if sid.Doc != "Rents cars of several models at a daily charge." {
		t.Fatalf("Doc = %q", sid.Doc)
	}
	if len(sid.Types) != 5 {
		t.Fatalf("len(Types) = %d, want 5", len(sid.Types))
	}
	cm := sid.Type("CarModel_t")
	if cm == nil || cm.Kind != Enum || len(cm.Literals) != 3 || cm.Literals[1] != "FIAT_Uno" {
		t.Fatalf("CarModel_t = %+v", cm)
	}
	sel := sid.Type("SelectCar_t")
	if sel == nil || sel.Kind != Struct || len(sel.Fields) != 3 {
		t.Fatalf("SelectCar_t = %+v", sel)
	}
	if f, ok := sel.Field("model"); !ok || f.Type.Name != "CarModel_t" {
		t.Fatalf("SelectCar_t.model = %+v, %v", f, ok)
	}

	if got := sid.OpNames(); len(got) != 2 || got[0] != "SelectCar" || got[1] != "Commit" {
		t.Fatalf("OpNames = %v", got)
	}
	op, ok := sid.Op("SelectCar")
	if !ok {
		t.Fatal("missing SelectCar")
	}
	if op.Doc != "Check availability and price of a car model." {
		t.Fatalf("SelectCar doc = %q", op.Doc)
	}
	if len(op.Params) != 1 || op.Params[0].Dir != In || op.Params[0].Type.Name != "SelectCar_t" {
		t.Fatalf("SelectCar params = %+v", op.Params)
	}
	if op.Result.Name != "SelectCarReturn_t" {
		t.Fatalf("SelectCar result = %s", op.Result)
	}

	// FSM module — the paper's exact transition set.
	if !sid.FSM.Restricted() {
		t.Fatal("FSM must be restricted")
	}
	if !sid.FSM.Equal(fsm.CarRentalSpec()) && sid.FSM.Initial != "INIT" {
		t.Fatalf("FSM = %s", sid.FSM)
	}
	if to, ok := sid.FSM.Next("SELECTED", "Commit"); !ok || to != "INIT" {
		t.Fatalf("FSM Next(SELECTED, Commit) = %q, %v", to, ok)
	}

	// Trader export module — the paper's listing.
	if sid.Trader == nil {
		t.Fatal("missing trader export")
	}
	if sid.Trader.ServiceID != 4711 || sid.Trader.TypeOfService != "CarRentalService" {
		t.Fatalf("Trader = %+v", sid.Trader)
	}
	if v, ok := sid.Trader.Property("CarModel"); !ok || v.Kind != LitEnum || v.Str != "FIAT_Uno" {
		t.Fatalf("CarModel property = %+v, %v", v, ok)
	}
	if v, ok := sid.Trader.Property("ChargePerDay"); !ok || v.Kind != LitFloat || v.Float != 80 {
		t.Fatalf("ChargePerDay property = %+v, %v", v, ok)
	}
	if _, ok := sid.Trader.Property("Nonexistent"); ok {
		t.Fatal("Nonexistent property must be absent")
	}

	// UI module.
	if sid.UI.Doc("SelectCar") != "Choose a car model and booking date" {
		t.Fatalf("UI doc = %q", sid.UI.Doc("SelectCar"))
	}
	if sid.UI.Widget("SelectCar.selection.model") != "choice" {
		t.Fatalf("UI widget = %q", sid.UI.Widget("SelectCar.selection.model"))
	}
}

func TestParseTypeSpecVariants(t *testing.T) {
	src := `
module TypeZoo {
    typedef long long Big_t;
    typedef unsigned long Count_t;
    typedef unsigned long long Huge_t;
    typedef short Small_t;
    typedef octet Byte_t;
    typedef sequence<string> Names_t;
    typedef sequence<sequence<long>> Matrix_t;
    typedef enum { RED, GREEN } Color_t;
    typedef struct { long x; long y; } Point_t;
    typedef Object Peer_t;
    interface COSM_Operations {
        void Ping();
        Point_t Move(in Point_t from, inout Names_t tags, out Color_t seen);
    };
};
`
	sid, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	wantKinds := map[string]Kind{
		"Big_t": Int64, "Count_t": UInt32, "Huge_t": UInt64,
		"Small_t": Int16, "Byte_t": Octet, "Names_t": Sequence,
		"Matrix_t": Sequence, "Color_t": Enum, "Point_t": Struct,
		"Peer_t": SvcRef,
	}
	for name, kind := range wantKinds {
		tt := sid.Type(name)
		if tt == nil || tt.Kind != kind {
			t.Fatalf("type %s = %+v, want kind %s", name, tt, kind)
		}
	}
	if elem := sid.Type("Matrix_t").Elem; elem.Kind != Sequence || elem.Elem.Kind != Int32 {
		t.Fatalf("Matrix_t element = %+v", elem)
	}
	op, _ := sid.Op("Move")
	if op.Params[1].Dir != InOut || op.Params[2].Dir != Out {
		t.Fatalf("Move dirs = %+v", op.Params)
	}
	ping, _ := sid.Op("Ping")
	if ping.Result.Kind != Void || len(ping.Params) != 0 {
		t.Fatalf("Ping = %+v", ping)
	}
}

func TestParseUnknownModuleSkipped(t *testing.T) {
	// An extension module this implementation does not understand must
	// be skipped and preserved, exactly as section 4.1 requires of
	// CORBA-compliant components.
	src := `
module Svc {
    interface COSM_Operations {
        void Ping();
    };
    module COSM_QoSContract {
        const long MaxLatencyMs = 20;
        module Nested { const string x = "deep { braces } too"; };
    };
};
`
	sid, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if len(sid.Unknown) != 1 || sid.Unknown[0].Name != "COSM_QoSContract" {
		t.Fatalf("Unknown = %+v", sid.Unknown)
	}
	if !strings.Contains(sid.Unknown[0].Body, "MaxLatencyMs") {
		t.Fatalf("raw body lost: %q", sid.Unknown[0].Body)
	}
	if !strings.Contains(sid.Unknown[0].Body, "deep { braces } too") {
		t.Fatalf("nested raw body lost: %q", sid.Unknown[0].Body)
	}
	// The preserved module must survive a round trip.
	again, err := Parse(sid.IDL())
	if err != nil {
		t.Fatalf("re-parse: %v", err)
	}
	if len(again.Unknown) != 1 || !strings.Contains(again.Unknown[0].Body, "MaxLatencyMs") {
		t.Fatalf("round-tripped Unknown = %+v", again.Unknown)
	}
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
	}{
		{"empty", ""},
		{"no module", "interface X {};"},
		{"unterminated module", "module X {"},
		{"unknown type", "module X { typedef Bogus_t T; };"},
		{"forward reference", "module X { typedef B_t A_t; typedef long B_t; };"},
		{"dup type", "module X { typedef long T; typedef string T; };"},
		{"dup enum literal", "module X { enum E { A, A }; };"},
		{"dup struct field", "module X { struct S { long a; long a; }; };"},
		{"empty struct", "module X { struct S { }; };"},
		{"const type mismatch int for string", `module X { const string S = 42; };`},
		{"const type mismatch string for long", `module X { const long N = "x"; };`},
		{"const bool for long", `module X { const long N = TRUE; };`},
		{"const unknown enum literal", `module X { enum E { A }; const E e = B; };`},
		{"fsm without initial", "module X { interface COSM_Operations { void F(); }; module COSM_FSM { transition A F B; }; };"},
		{"fsm dup initial", "module X { interface COSM_Operations { void F(); }; module COSM_FSM { initial A; initial B; transition A F B; }; };"},
		{"fsm unknown op", "module X { interface COSM_Operations { void F(); }; module COSM_FSM { initial A; transition A Bogus B; }; };"},
		{"fsm junk", "module X { module COSM_FSM { frobnicate; }; };"},
		{"trader without TOD", "module X { module COSM_TraderExport { const unsigned long ServiceID = 1; }; };"},
		{"trader bad ServiceID", `module X { module COSM_TraderExport { const string ServiceID = "x"; const string TOD = "T"; }; };`},
		{"trader non-const", `module X { module COSM_TraderExport { typedef long T; }; };`},
		{"dup trader", `module X { module COSM_TraderExport { const string TOD = "T"; }; module COSM_TraderExport { const string TOD = "T"; }; };`},
		{"ui doc without string", "module X { interface COSM_Operations { void F(); }; module COSM_UI { doc F; }; };"},
		{"ui unknown directive", "module X { module COSM_UI { paint F red; }; };"},
		{"ui path for unknown op", `module X { interface COSM_Operations { void F(); }; module COSM_UI { doc G "gone"; }; };`},
		{"dup op", "module X { interface COSM_Operations { void F(); void F(); }; };"},
		{"dup param", "module X { interface COSM_Operations { void F(in long a, in long a); }; };"},
		{"void param", "module X { interface COSM_Operations { void F(in void a); }; };"},
		{"unterminated string", `module X { const string S = "oops; };`},
		{"newline in string", "module X { const string S = \"a\nb\"; };"},
		{"unterminated comment", "module X { /* forever };"},
		{"bad char", "module X { @ };"},
		{"trailing garbage", "module X { }; extra"},
		{"unterminated unknown module", "module X { module Y { "},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := Parse(tt.src)
			if err == nil {
				t.Fatalf("Parse succeeded, want error")
			}
		})
	}
}

func TestParseSyntaxErrorsAreWrapped(t *testing.T) {
	_, err := Parse("module X { typedef ???; };")
	if !errors.Is(err, ErrSyntax) {
		t.Fatalf("err = %v, want ErrSyntax", err)
	}
}

func TestParseErrorMentionsLine(t *testing.T) {
	src := "module X {\n  typedef long T;\n  bogus decl;\n};"
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("err = %v, want mention of line 3", err)
	}
}

func TestDocCommentAttachment(t *testing.T) {
	src := `
// Module doc line one.
// Module doc line two.
module Svc {
    interface COSM_Operations {
        // First op doc.
        void A();

        // Dangling block, separated by the blank line above from A.
        // Attached to B.
        void B();
        void C();
    };
};
`
	sid, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if sid.Doc != "Module doc line one.\nModule doc line two." {
		t.Fatalf("module doc = %q", sid.Doc)
	}
	a, _ := sid.Op("A")
	if a.Doc != "First op doc." {
		t.Fatalf("A doc = %q", a.Doc)
	}
	b, _ := sid.Op("B")
	if !strings.Contains(b.Doc, "Attached to B.") {
		t.Fatalf("B doc = %q", b.Doc)
	}
	c, _ := sid.Op("C")
	if c.Doc != "" {
		t.Fatalf("C doc = %q, want empty", c.Doc)
	}
}

func TestBlockComments(t *testing.T) {
	src := `
/* A block-documented service. */
module Svc {
    /* multi
       line */
    interface COSM_Operations { void F(); };
};
`
	sid, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	if sid.Doc != "A block-documented service." {
		t.Fatalf("doc = %q", sid.Doc)
	}
}

func TestKeywords(t *testing.T) {
	sid := CarRentalSID()
	kws := sid.Keywords()
	want := []string{"carrentalservice", "selectcar", "booking"}
	set := map[string]bool{}
	for _, k := range kws {
		set[k] = true
	}
	for _, w := range want {
		if !set[w] {
			t.Fatalf("keyword %q missing from %v", w, kws)
		}
	}
}

func TestSIDConformsTo(t *testing.T) {
	base := CarRentalSID()

	t.Run("reflexive", func(t *testing.T) {
		if err := base.ConformsTo(base); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("extension conforms", func(t *testing.T) {
		ext := base.Clone()
		ext.Ops = append(ext.Ops, Op{Name: "CancelBooking", Result: Basic(Bool)})
		ext.Unknown = append(ext.Unknown, RawModule{Name: "COSM_Extra", Body: "const long x = 1;"})
		if err := ext.ConformsTo(base); err != nil {
			t.Fatal(err)
		}
		if err := base.ConformsTo(ext); err == nil {
			t.Fatal("base must not conform to extension with more ops")
		}
	})
	t.Run("missing op breaks conformance", func(t *testing.T) {
		sub := base.Clone()
		sub.Ops = sub.Ops[:1]
		if err := sub.ConformsTo(base); !errors.Is(err, ErrNotConformant) {
			t.Fatalf("err = %v, want ErrNotConformant", err)
		}
	})
	t.Run("changed signature breaks conformance", func(t *testing.T) {
		sub := base.Clone()
		sub.Ops[0].Result = Basic(Bool)
		if err := sub.ConformsTo(base); !errors.Is(err, ErrNotConformant) {
			t.Fatalf("err = %v, want ErrNotConformant", err)
		}
	})
	t.Run("missing type breaks conformance", func(t *testing.T) {
		sub := base.Clone()
		sub.Types = sub.Types[1:]
		if err := sub.ConformsTo(base); !errors.Is(err, ErrNotConformant) {
			t.Fatalf("err = %v, want ErrNotConformant", err)
		}
	})
}

func TestValidateDirect(t *testing.T) {
	tests := []struct {
		name string
		sid  *SID
		want error
	}{
		{"no name", &SID{}, ErrNoName},
		{"dup type", &SID{ServiceName: "S", Types: []*Type{EnumOf("E", "A"), EnumOf("E", "B")}}, ErrDupType},
		{"dup op", &SID{ServiceName: "S", Ops: []Op{{Name: "F", Result: Basic(Void)}, {Name: "F", Result: Basic(Void)}}}, ErrDupOp},
		{
			"fsm op unknown",
			&SID{ServiceName: "S", Ops: []Op{{Name: "F", Result: Basic(Void)}},
				FSM: &fsm.Spec{States: []string{"A"}, Initial: "A",
					Transitions: []fsm.Transition{{From: "A", Op: "G", To: "A"}}}},
			ErrUnknownOp,
		},
		{
			"ui path unknown",
			&SID{ServiceName: "S", Ops: []Op{{Name: "F", Result: Basic(Void)}},
				UI: &UISpec{Docs: map[string]string{"G.x": "doc"}}},
			ErrUnknownOp,
		},
		{
			"valid minimal",
			&SID{ServiceName: "S", Ops: []Op{{Name: "F", Result: Basic(Void)}}},
			nil,
		},
		{"void typedef", &SID{ServiceName: "S", Types: []*Type{{Kind: Void, Name: "V"}}}, ErrVoid},
		{"void sequence element", &SID{ServiceName: "S", Types: []*Type{{Kind: Sequence, Name: "In_t", Elem: Basic(Void)}}}, ErrVoid},
		{"void struct member", &SID{ServiceName: "S", Types: []*Type{StructOf("R", Field{Name: "v", Type: Basic(Void)})}}, ErrVoid},
		{"void constant", &SID{ServiceName: "S", Consts: []Const{{Name: "C", Type: Basic(Void)}}}, ErrVoid},
		{
			"void parameter",
			&SID{ServiceName: "S", Ops: []Op{{Name: "F", Result: Basic(Void),
				Params: []Param{{Name: "p", Dir: In, Type: Basic(Void)}}}}},
			ErrVoid,
		},
		{
			"void nested in a parameter",
			&SID{ServiceName: "S", Ops: []Op{{Name: "F", Result: Basic(Void),
				Params: []Param{{Name: "p", Dir: In, Type: SequenceOf(SequenceOf(Basic(Void)))}}}}},
			ErrVoid,
		},
		{
			"void nested in a result",
			&SID{ServiceName: "S", Ops: []Op{{Name: "F", Result: SequenceOf(Basic(Void))}}},
			ErrVoid,
		},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := tt.sid.Validate(); !errors.Is(err, tt.want) {
				t.Fatalf("Validate() = %v, want %v", err, tt.want)
			}
		})
	}
}

// TestVoidOnlyAsOperationResult: a void value encodes to no bytes, so a
// downloaded SID that nests void in a sequence lets a 602-byte reply
// claim 200 x 262144 elements (see xcode's TestUnmarshalVoidSequence).
// Both paths a description enters by — Parse and UnmarshalText — refuse
// void anywhere but as an operation's result.
func TestVoidOnlyAsOperationResult(t *testing.T) {
	for name, decl := range map[string]string{
		"sequence<void>":        "typedef sequence<void> In_t;",
		"nested sequence<void>": "typedef sequence<sequence<void> > Out_t;",
		"struct member":         "struct R { long a; void v; };",
		"typedef":               "typedef void V;",
		"parameter":             "interface COSM_Operations { long F(in void p); };",
		"nested in a result":    "interface COSM_Operations { sequence<void> F(); };",
		"constant":              "const void C = 1;",
	} {
		src := "module X { " + decl + " };"
		if _, err := Parse(src); !errors.Is(err, ErrSyntax) {
			t.Errorf("%s: Parse(%q) = %v, want a syntax error", name, src, err)
		}
		var sid SID
		if err := sid.UnmarshalText([]byte(src)); err == nil {
			t.Errorf("%s: UnmarshalText(%q) accepted void", name, src)
		}
	}
	sid, err := Parse("module X { interface COSM_Operations { void F(in long a); }; };")
	if err != nil || sid.Ops[0].Result.Kind != Void {
		t.Fatalf("a void result must still parse: %v", err)
	}
}

func TestParserDepthGuard(t *testing.T) {
	// A deeply nested sequence type must be rejected cleanly, not blow
	// the stack.
	deep := strings.Repeat("sequence<", 500) + "long" + strings.Repeat(">", 500)
	src := "module X { typedef " + deep + " T; };"
	_, err := Parse(src)
	if err == nil || !strings.Contains(err.Error(), "nesting exceeds") {
		t.Fatalf("err = %v, want nesting guard", err)
	}
	// Moderate nesting still parses.
	ok := strings.Repeat("sequence<", 32) + "long" + strings.Repeat(">", 32)
	if _, err := Parse("module X { typedef " + ok + " T; interface COSM_Operations { void F(); }; };"); err != nil {
		t.Fatalf("moderate nesting failed: %v", err)
	}
}
