package trader

// Semantic matchmaking tests: graded conformance-aware imports over a
// diamond hierarchy, the randomized indexed-vs-linear equivalence
// property, agreement between mesh summary routing and local matching,
// and wire compatibility with traders that predate grading.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"

	"cosm/internal/match"
	"cosm/internal/obs"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader/core"
	"cosm/internal/typemgr"
	"cosm/internal/xcode"
)

// hierType builds a minimal service type with int attributes.
func hierType(name, super string, attrs ...string) *typemgr.ServiceType {
	st := &typemgr.ServiceType{Name: name, Super: super}
	for _, a := range attrs {
		st.Attrs = append(st.Attrs, typemgr.AttrDef{Name: a, Type: sidl.Basic(sidl.Int64)})
	}
	return st
}

// hierDiamondRepo mirrors the typemgr diamond: A{x}; B{x,y} and C{x,z}
// declare Super=A; D{x,y,z} declares Super=B and reaches C only
// structurally.
func hierDiamondRepo(t testing.TB) *typemgr.Repo {
	t.Helper()
	r := typemgr.NewRepo()
	for _, st := range []*typemgr.ServiceType{
		hierType("A", "", "x"),
		hierType("B", "A", "x", "y"),
		hierType("C", "A", "x", "z"),
		hierType("D", "B", "x", "y", "z"),
	} {
		if err := r.Define(st); err != nil {
			t.Fatalf("Define(%s): %v", st.Name, err)
		}
	}
	return r
}

func intProps(kv ...any) []sidl.Property {
	props := make([]sidl.Property, 0, len(kv)/2)
	for i := 0; i < len(kv); i += 2 {
		props = append(props, sidl.Property{
			Name:  kv[i].(string),
			Value: sidl.IntLit(int64(kv[i+1].(int))),
		})
	}
	return props
}

func hierRef(i int) ref.ServiceRef {
	return ref.New(fmt.Sprintf("tcp:10.9.%d.%d:7000", i/250, i%250), "Hier")
}

// exportDiamond registers one offer per diamond type and returns the
// offer IDs keyed by type name.
func exportDiamond(t *testing.T, tr *Trader) map[string]string {
	t.Helper()
	ids := map[string]string{}
	for i, tc := range []struct {
		typ   string
		props []sidl.Property
	}{
		{"A", intProps("x", 1)},
		{"B", intProps("x", 1, "y", 2)},
		{"C", intProps("x", 1, "z", 3)},
		{"D", intProps("x", 1, "y", 2, "z", 3)},
	} {
		id, err := tr.Export(tc.typ, hierRef(i+1), tc.props)
		if err != nil {
			t.Fatalf("export %s: %v", tc.typ, err)
		}
		ids[tc.typ] = id
	}
	return ids
}

func TestImportGradedDiamond(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	tr := New("S", hierDiamondRepo(t), WithMetrics(reg))
	exportDiamond(t, tr)

	// Default import of the base type: the whole conformant closure,
	// graded exact for A and subtype for the rest, scored by depth.
	ms, err := tr.ImportGraded(ctx, NewImport("A"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]struct {
		grade match.Grade
		score float64
	}{
		"A": {match.GradeExact, 1.0},
		"B": {match.GradeSubtype, 0.9},
		"C": {match.GradeSubtype, 0.9},
		"D": {match.GradeSubtype, 0.85},
	}
	if len(ms) != len(want) {
		t.Fatalf("import A = %d matches, want %d: %+v", len(ms), len(want), ms)
	}
	for _, m := range ms {
		w := want[m.Type]
		if m.Grade != w.grade || m.Score != w.score {
			t.Fatalf("type %s graded (%s, %.2f), want (%s, %.2f)",
				m.Type, m.Grade, m.Score, w.grade, w.score)
		}
	}

	grades := reg.CounterVec("cosm_trader_match_grade_total", "", "grade").Snapshot()
	if grades["exact"] != 1 || grades["subtype"] != 3 {
		t.Fatalf("grade counters = %v, want exact=1 subtype=3", grades)
	}

	// GradeExact restricts the import to the literal requested type.
	ms, err = tr.ImportGraded(ctx, NewImport("A", MinGrade(match.GradeExact)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Type != "A" || ms[0].Grade != match.GradeExact {
		t.Fatalf("exact-floor import = %+v, want only A", ms)
	}

	// Conformant() spells out today's default; the result must agree.
	explicit, err := tr.ImportGraded(ctx, NewImport("A", Conformant()))
	if err != nil || len(explicit) != 4 {
		t.Fatalf("Conformant() import = %+v, %v", explicit, err)
	}

	// Importing C finds C exactly and D only structurally: D's declared
	// chain runs D→B→A, so its conformance to C is worth the structural
	// score, below every declared subtype.
	ms, err = tr.ImportGraded(ctx, NewImport("C"))
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]float64{}
	for _, m := range ms {
		got[m.Type] = m.Score
	}
	if len(got) != 2 || got["C"] != 1.0 || got["D"] != match.ScoreStructural {
		t.Fatalf("import C scores = %v, want C=1.0 D=%.1f", got, match.ScoreStructural)
	}

	// An unknown request type matches nothing, without erroring.
	if ms, err := tr.ImportGraded(ctx, NewImport("Nope")); err != nil || len(ms) != 0 {
		t.Fatalf("unknown type import = %+v, %v", ms, err)
	}
}

func TestImportGradedPartialAttribute(t *testing.T) {
	ctx := context.Background()
	reg := obs.NewRegistry()
	tr := New("S", hierDiamondRepo(t), WithMetrics(reg))
	idFull, err := tr.Export("B", hierRef(1), intProps("x", 1, "y", 1))
	if err != nil {
		t.Fatal(err)
	}
	idPart, err := tr.Export("B", hierRef(2), intProps("x", 1, "y", 9))
	if err != nil {
		t.Fatal(err)
	}

	// Under the default floor the half-satisfying offer is filtered out.
	ms, err := tr.ImportGraded(ctx, NewImport("B", Where("x == 1 && y == 1")))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].ID != idFull {
		t.Fatalf("default-floor matches = %+v, want only %s", ms, idFull)
	}

	// GradePartial surfaces it, graded and scored below the full match,
	// and the score policy ranks the full match first.
	ms, err = tr.ImportGraded(ctx, NewImport("B", Where("x == 1 && y == 1"),
		MinGrade(match.GradePartial), OrderBy("score")))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 || ms[0].ID != idFull || ms[1].ID != idPart {
		t.Fatalf("partial-floor matches = %+v, want full %s before partial %s", ms, idFull, idPart)
	}
	if ms[0].Grade != match.GradeExact || ms[0].Score != 1.0 {
		t.Fatalf("full match graded (%s, %.2f)", ms[0].Grade, ms[0].Score)
	}
	wantScore := match.PartialScore(match.ScoreExact, 1, 2)
	if ms[1].Grade != match.GradePartial || ms[1].Score != wantScore {
		t.Fatalf("partial match graded (%s, %.2f), want (partial-attribute, %.2f)",
			ms[1].Grade, ms[1].Score, wantScore)
	}
	if grades := reg.CounterVec("cosm_trader_match_grade_total", "", "grade").Snapshot(); grades["partial-attribute"] != 1 {
		t.Fatalf("grade counters = %v, want partial-attribute=1", grades)
	}
}

// TestMeshCoverageAgreesWithLocalMatching pins the shared-predicate
// satellite: typemgr.Covers — the exact test planScatter and the gossip
// summary router apply to advertised types — must agree with what the
// local matching engine actually returns under the default (full-match)
// grade floor, for every (requested, offered) pair of the diamond.
func TestMeshCoverageAgreesWithLocalMatching(t *testing.T) {
	ctx := context.Background()
	repo := hierDiamondRepo(t)
	names := []string{"A", "B", "C", "D"}
	attrs := map[string][]sidl.Property{
		"A": intProps("x", 1),
		"B": intProps("x", 1, "y", 2),
		"C": intProps("x", 1, "z", 3),
		"D": intProps("x", 1, "y", 2, "z", 3),
	}
	for _, req := range names {
		for i, offered := range names {
			tr := New("P", repo)
			if _, err := tr.Export(offered, hierRef(i+1), attrs[offered]); err != nil {
				t.Fatal(err)
			}
			ms, err := tr.ImportGraded(ctx, ImportRequest{Type: req})
			if err != nil {
				t.Fatal(err)
			}
			covered := repo.Covers(req, offered)
			if matched := len(ms) > 0; matched != covered {
				t.Fatalf("req %s offered %s: local match %v, Covers %v — routing and matching disagree",
					req, offered, matched, covered)
			}
			if covered && !ms[0].Grade.AtLeast(match.GradeSubtype) {
				t.Fatalf("req %s offered %s: full match graded %s", req, offered, ms[0].Grade)
			}
		}
	}
}

// TestMeshSummaryRoutesSubtypeCoverage: summary-routed imports consult a
// peer whose advertised types only *conformantly* cover the request —
// and skip peers whose types do not — using the same closure helper as
// the local matcher.
func TestMeshSummaryRoutesSubtypeCoverage(t *testing.T) {
	ctx := context.Background()
	repo := hierDiamondRepo(t)
	hub := New("hub", repo)
	sub := New("sub", repo)     // holds a D offer: covers a C request structurally
	other := New("other", repo) // holds a B offer: no conformance to C
	if _, err := sub.Export("D", hierRef(1), intProps("x", 1, "y", 2, "z", 3)); err != nil {
		t.Fatal(err)
	}
	if _, err := other.Export("B", hierRef(2), intProps("x", 1, "y", 2)); err != nil {
		t.Fatal(err)
	}
	mustLink(t, hub, "sub", sub)
	mustLink(t, hub, "other", other)

	if pushed, failed := hub.GossipRound(ctx, time.Second); pushed != 2 || failed != 0 {
		t.Fatalf("gossip round pushed %d, failed %d", pushed, failed)
	}
	before := hub.FedStats()
	ms, err := hub.ImportGraded(ctx, NewImport("C", Hops(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Type != "D" || ms[0].Grade != match.GradeSubtype {
		t.Fatalf("routed import = %+v, want one subtype-graded D match", ms)
	}
	if asked := hub.FedStats().PeersAsked - before.PeersAsked; asked != 1 {
		t.Fatalf("peers asked = %d, want 1 (subtype-covering peer only)", asked)
	}
}

// ungradedFederate simulates a federation peer that predates grading:
// its answers carry no grade, exactly like offers tolerantly decoded
// from an old trader's wire response.
type ungradedFederate struct{ offers []*Offer }

func (f *ungradedFederate) FederationID() string { return "OLD" }

func (f *ungradedFederate) ImportGraded(context.Context, ImportRequest) ([]Match, error) {
	ms := make([]Match, len(f.offers))
	for i, o := range f.offers {
		ms[i] = Match{Offer: o}
	}
	return ms, nil
}

func TestFederationRegradesOldPeerMatches(t *testing.T) {
	ctx := context.Background()
	old := &ungradedFederate{offers: []*Offer{{
		ID: "OLD/o1", Type: "D", Ref: hierRef(9),
		Props: map[string]sidl.Lit{"x": sidl.IntLit(1), "y": sidl.IntLit(2), "z": sidl.IntLit(3)},
	}}}
	a := New("A", hierDiamondRepo(t))
	mustLink(t, a, "old", old)

	ms, err := a.ImportGraded(ctx, NewImport("A", Hops(1)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 || ms[0].Grade != match.GradeSubtype || ms[0].Score != 0.85 {
		t.Fatalf("re-graded remote = %+v, want one subtype match scored 0.85", ms)
	}

	// The origin re-applies the grade floor the old peer ignored.
	ms, err = a.ImportGraded(ctx, NewImport("A", Hops(1), MinGrade(match.GradeExact)))
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 0 {
		t.Fatalf("exact floor over old peer = %+v, want nothing", ms)
	}
}

// --- randomized equivalence over hierarchies --------------------------

// TestConformantIndexedMatchesLinearProperty drives an indexed trader
// and a WithoutOfferIndex linear-scan trader through identical offer
// histories over randomized type hierarchies — declared chains,
// structural-only conformance and diamonds included — and asserts every
// graded import returns byte-identical results (IDs, grades, scores).
// Replace, MarkSuspect, Withdraw and Export are interleaved between the
// imports, and so are new subtypes (with offers) and the removal of
// emptied types, so every import may find snapshots and indexes
// derived by the write just before it, and its type's closure and the
// stored type set changed since the import before.
func TestConformantIndexedMatchesLinearProperty(t *testing.T) {
	ctx := context.Background()
	r := rand.New(rand.NewSource(11))

	for trial := 0; trial < 5; trial++ {
		repo := typemgr.NewRepo()
		nTypes := 5 + r.Intn(4)
		attrsOf := map[string][]string{}
		superOf := map[string]string{}
		var names []string
		for i := 0; i < nTypes; i++ {
			name := fmt.Sprintf("T%d", i)
			super := ""
			attrs := []string{"a0"}
			if i > 0 {
				parent := names[r.Intn(i)]
				attrs = append([]string(nil), attrsOf[parent]...)
				if r.Intn(2) == 0 {
					attrs = append(attrs, fmt.Sprintf("a%d", i))
				}
				// Occasionally absorb a second type's attributes: the
				// declared chain stays linear but structural conformance
				// grows a diamond.
				if r.Intn(3) == 0 {
					for _, a := range attrsOf[names[r.Intn(i)]] {
						if !containsStr(attrs, a) {
							attrs = append(attrs, a)
						}
					}
				}
				if r.Intn(4) != 0 {
					super = parent // sometimes structural-only conformance
				}
			}
			attrsOf[name] = attrs
			superOf[name] = super
			names = append(names, name)
			if err := repo.Define(hierType(name, super, attrs...)); err != nil {
				t.Fatalf("trial %d Define(%s): %v", trial, name, err)
			}
		}

		indexed := New("T", repo)
		linear := New("T", repo, WithoutOfferIndex())
		traders := []*Trader{indexed, linear}

		var ids []string
		typeOf := map[string]string{}
		randProps := func(typ string) []sidl.Property {
			props := make([]sidl.Property, 0, len(attrsOf[typ])+1)
			for _, a := range attrsOf[typ] {
				props = append(props, sidl.Property{Name: a, Value: sidl.IntLit(int64(r.Intn(10)))})
			}
			if r.Intn(3) == 0 {
				props = append(props, sidl.Property{Name: "extra", Value: sidl.IntLit(int64(r.Intn(10)))})
			}
			return props
		}
		exportOf := func(typ string) {
			props := randProps(typ)
			target := hierRef(len(ids) + 1)
			var firstID string
			for i, tr := range traders {
				id, err := tr.Export(typ, target, props)
				if err != nil {
					t.Fatal(err)
				}
				if i == 0 {
					firstID = id
				} else if id != firstID {
					t.Fatalf("diverging offer ids %q vs %q", firstID, id)
				}
			}
			ids = append(ids, firstID)
			typeOf[firstID] = typ
		}
		export := func() { exportOf(names[r.Intn(len(names))]) }
		// write applies one random mutation to both traders; an ID already
		// withdrawn must be refused by both alike.
		write := func() {
			id := ids[r.Intn(len(ids))]
			var op func(*Trader) error
			switch r.Intn(4) {
			case 0:
				export()
				return
			case 1:
				props := randProps(typeOf[id])
				op = func(tr *Trader) error { return tr.Replace(id, props) }
			case 2:
				suspect := r.Intn(2) == 0
				op = func(tr *Trader) error { return tr.MarkSuspect(id, suspect) }
			default:
				op = func(tr *Trader) error { return tr.Withdraw(id) }
			}
			if errA, errB := op(indexed), op(linear); (errA == nil) != (errB == nil) {
				t.Fatalf("trial %d write on %s: errs %v vs %v", trial, id, errA, errB)
			}
		}

		leaf := func() string {
			op := []string{"==", "!=", "<", "<=", ">", ">="}[r.Intn(6)]
			return fmt.Sprintf("a%d %s %d", r.Intn(nTypes), op, r.Intn(10))
		}
		constraint := func() string {
			switch r.Intn(4) {
			case 0:
				return ""
			case 1:
				return leaf()
			case 2:
				return leaf() + " && " + leaf()
			default:
				return leaf() + " && (" + leaf() + " || " + leaf() + ")"
			}
		}
		// The stored type set churns between imports: a fresh subtype
		// arrives with offers, so a bucket appears inside some closure,
		// and a type that has no subtype is emptied and removed, so its
		// bucket and its closure member both go.
		defined := 0
		defineSubtype := func() {
			name := fmt.Sprintf("S%d", defined)
			defined++
			parent := names[r.Intn(len(names))]
			attrs := append([]string(nil), attrsOf[parent]...)
			if r.Intn(2) == 0 {
				attrs = append(attrs, "x"+name)
			}
			if err := repo.Define(hierType(name, parent, attrs...)); err != nil {
				t.Fatalf("trial %d Define(%s): %v", trial, name, err)
			}
			attrsOf[name], superOf[name] = attrs, parent
			names = append(names, name)
			for i := 1 + r.Intn(3); i > 0; i-- {
				exportOf(name)
			}
		}
		removeEmptied := func() {
			var leaves []string
			for _, n := range names {
				if !slices.ContainsFunc(names, func(m string) bool { return superOf[m] == n }) {
					leaves = append(leaves, n)
				}
			}
			if len(names) <= 3 || len(leaves) == 0 {
				return
			}
			typ := leaves[r.Intn(len(leaves))]
			for _, id := range ids {
				if typeOf[id] == typ {
					for _, tr := range traders {
						_ = tr.Withdraw(id)
					}
				}
			}
			if err := repo.Remove(typ); err != nil {
				t.Fatalf("trial %d Remove(%s): %v", trial, typ, err)
			}
			names = slices.DeleteFunc(names, func(n string) bool { return n == typ })
		}

		floors := []match.Grade{match.GradeNone, match.GradePartial, match.GradeSubtype, match.GradeExact}
		policies := []string{"", "score", "min:a0"}

		check := func(round int) {
			for k := 0; k < 12; k++ {
				if r.Intn(2) == 0 {
					write()
				}
				switch r.Intn(8) {
				case 0:
					defineSubtype()
				case 1:
					removeEmptied()
				}
				reqType := names[r.Intn(len(names))]
				if r.Intn(8) == 0 {
					reqType = "Unknown"
				}
				req := ImportRequest{
					Type:       reqType,
					Constraint: constraint(),
					Policy:     policies[r.Intn(len(policies))],
					Max:        r.Intn(4),
					MinGrade:   floors[r.Intn(len(floors))],
				}
				a, errA := indexed.ImportGraded(ctx, req)
				b, errB := linear.ImportGraded(ctx, req)
				if (errA == nil) != (errB == nil) {
					t.Fatalf("trial %d round %d %+v: errs %v vs %v", trial, round, req, errA, errB)
				}
				if len(a) != len(b) {
					t.Fatalf("trial %d round %d %+v: indexed %d matches, linear %d\n%+v\n%+v",
						trial, round, req, len(a), len(b), a, b)
				}
				for i := range a {
					if a[i].ID != b[i].ID || a[i].Grade != b[i].Grade || a[i].Score != b[i].Score {
						t.Fatalf("trial %d round %d %+v match %d: indexed (%s,%s,%.3f), linear (%s,%s,%.3f)",
							trial, round, req, i,
							a[i].ID, a[i].Grade, a[i].Score, b[i].ID, b[i].Grade, b[i].Score)
					}
				}
			}
		}

		for round := 0; round < 6; round++ {
			for i := 0; i < 8; i++ {
				export()
			}
			if len(ids) > 0 && r.Intn(2) == 0 {
				id := ids[r.Intn(len(ids))]
				for _, tr := range traders {
					_ = tr.Withdraw(id)
				}
			}
			// Mid-trial type definition: the hierarchy closure caches must
			// invalidate on the repo generation bump.
			if round == 3 {
				name := fmt.Sprintf("TX%d", trial)
				parent := names[r.Intn(len(names))]
				if err := repo.Define(hierType(name, parent, append([]string(nil), attrsOf[parent]...)...)); err != nil {
					t.Fatal(err)
				}
				attrsOf[name], superOf[name] = attrsOf[parent], parent
				names = append(names, name)
			}
			check(round)
		}
	}
}

func containsStr(ss []string, s string) bool {
	for _, x := range ss {
		if x == s {
			return true
		}
	}
	return false
}

// --- wire compatibility with pre-grading traders ----------------------

// oldTraderIDL is the Import slice of the trader protocol as it looked
// before grade/score and minGrade existed.
const oldTraderIDL = `
module OldTrader {
    struct Prop_t {
        string name;
        string kind;
        string text;
    };
    typedef sequence<Prop_t> Props_t;
    typedef sequence<string> Names_t;
    struct Offer_t {
        string id;
        string serviceType;
        Object target;
        Props_t props;
        long long expiresUnix;
        boolean suspect;
    };
    typedef sequence<Offer_t> Offers_t;
    struct ImportReq_t {
        string serviceType;
        string constraint;
        string policy;
        long max;
        long hopLimit;
        long maxPeers;
        long long hedgeMs;
        Names_t visited;
    };
    interface Old {
        Offers_t Import(in ImportReq_t req);
    };
};
`

// TestWireCompatNewClientOldTrader walks both halves of the version-skew
// path through the real codec. Request: a graded client's import request
// projects onto the old trader's ImportReq_t (the grade floor is
// dropped, nothing errors) and still decodes there. Response: an old
// trader's Offer_t decodes into a GradeNone match that the federation
// layer re-grades — new-client → old-trader degrades instead of failing.
func TestWireCompatNewClientOldTrader(t *testing.T) {
	newSid, err := sidl.Parse(IDL)
	if err != nil {
		t.Fatal(err)
	}
	offerT := newSid.Type("Offer_t")
	// What the client's import does with each element of a reply.
	matchFromBytes := func(t *sidl.Type, data []byte) (Match, error) {
		var w offerWire
		if err := xcode.DecodeInto(t, data, &w); err != nil {
			return Match{}, err
		}
		return w.match(new(Offer))
	}
	oldSid, err := sidl.Parse(oldTraderIDL)
	if err != nil {
		t.Fatal(err)
	}
	oldReqT := oldSid.Type("ImportReq_t")
	oldOfferT := oldSid.Type("Offer_t")
	if oldReqT == nil || oldOfferT == nil {
		t.Fatal("old IDL types missing")
	}

	// Request direction: encode as the old peer's type (which is the
	// projection), decode.
	wireReq, err := xcode.AppendEncode(nil, oldReqT, wireImportReq(ImportRequest{
		Type: "A", Constraint: "x == 1", Policy: "score",
		Max: 3, MinGrade: match.GradeExact,
	}))
	if err != nil {
		t.Fatalf("new import request does not project onto the old protocol: %v", err)
	}
	var reqW importReqWire
	if err := xcode.DecodeInto(oldReqT, wireReq, &reqW); err != nil {
		t.Fatalf("old trader cannot decode the projected request: %v", err)
	}
	decodedReq := reqW.request()
	if decodedReq.Type != "A" || decodedReq.Constraint != "x == 1" || decodedReq.Max != 3 {
		t.Fatalf("request fields lost in projection: %+v", decodedReq)
	}
	// The grade floor does not survive the old protocol: the old trader
	// answers its default match set (exact + conforming subtypes).
	if decodedReq.MinGrade != match.GradeNone {
		t.Fatalf("minGrade = %v, want GradeNone (floor dropped)", decodedReq.MinGrade)
	}
	if core.EffectiveMinGrade(decodedReq.MinGrade) != match.GradeSubtype {
		t.Fatal("degraded request must match with the default grade floor")
	}

	// Response direction: an old trader's offer lacks grade and score.
	oldPropsT := oldSid.Type("Props_t")
	emptyProps, err := xcode.NewSequence(oldPropsT)
	if err != nil {
		t.Fatal(err)
	}
	oldOffer, err := xcode.NewStruct(oldOfferT, map[string]*xcode.Value{
		"id":          xcode.NewString(sidl.Basic(sidl.String), "OLD/o1"),
		"serviceType": xcode.NewString(sidl.Basic(sidl.String), "D"),
		"target":      xcode.NewRef(sidl.Basic(sidl.SvcRef), hierRef(1)),
		"props":       emptyProps,
		"expiresUnix": xcode.NewInt(sidl.Basic(sidl.Int64), 0),
		"suspect":     xcode.NewBool(sidl.Basic(sidl.Bool), false),
	})
	if err != nil {
		t.Fatal(err)
	}
	m, err := matchFromBytes(oldOfferT, xcode.Marshal(oldOffer))
	if err != nil {
		t.Fatalf("old trader's offer does not decode as a match: %v", err)
	}
	if m.ID != "OLD/o1" || m.Type != "D" {
		t.Fatalf("offer fields lost: %+v", m)
	}
	if m.Grade != match.GradeNone || m.Score != 0 {
		t.Fatalf("pre-grading offer decoded as (%s, %.2f), want ungraded", m.Grade, m.Score)
	}

	// A graded response round-trips grade and score through the codec.
	back, err := xcode.AppendEncode(nil, offerT, wireMatch(Match{
		Offer: m.Offer, Grade: match.GradeSubtype, Score: 0.85,
	}, core.PropsToRecords(nil, m.Props)))
	if err != nil {
		t.Fatal(err)
	}
	m2, err := matchFromBytes(offerT, back)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Grade != match.GradeSubtype || m2.Score != 0.85 {
		t.Fatalf("graded match round-trip = (%s, %.2f)", m2.Grade, m2.Score)
	}
	// And an old client reading the graded Offer_t simply ignores the
	// extra fields.
	var o struct {
		ID          string
		ServiceType string
		Target      ref.ServiceRef
		Props       []PropRecord
		ExpiresUnix int64
		Suspect     bool
	}
	if err := xcode.DecodeInto(offerT, back, &o); err != nil || o.ID != "OLD/o1" {
		t.Fatalf("old-style decode of graded offer = %+v, %v", o, err)
	}
}

// TestOptionalWireMembersAbsent pins what the twelve optional members
// read as when a peer's SID lacks them — a struct in its first revision,
// cut here from today's IDL: exactly what the hand-written decoders read
// then. A required member stays required.
func TestOptionalWireMembersAbsent(t *testing.T) {
	sid, err := sidl.Parse(IDL)
	if err != nil {
		t.Fatal(err)
	}
	// without returns the named struct type minus some members, holding
	// every remaining one at a value that is not its zero.
	without := func(name string, drop ...string) *xcode.Value {
		cut := *sid.Type(name)
		cut.Fields = nil
		for _, f := range sid.Type(name).Fields {
			dropped := false
			for _, d := range drop {
				dropped = dropped || d == f.Name
			}
			if !dropped {
				cut.Fields = append(cut.Fields, f)
			}
		}
		v := xcode.Zero(&cut)
		for i, f := range cut.Fields {
			if f.Type.Kind == sidl.String {
				v.Fields[i] = xcode.NewString(f.Type, "closed")
			}
		}
		return v
	}
	decode := func(v *xcode.Value, dst any) error { return xcode.DecodeInto(v.Type, xcode.Marshal(v), dst) }

	var req importReqWire
	if err := decode(without("ImportReq_t", "maxPeers", "hedgeMs", "minGrade"), &req); err != nil {
		t.Fatal(err)
	}
	if r := req.request(); r.MaxPeers != 0 || r.Hedge != 0 || r.MinGrade != match.GradeNone || r.Type != "closed" {
		t.Errorf("first-revision ImportReq_t reads %+v", r)
	}

	var offer offerWire
	if err := decode(without("Offer_t", "expiresUnix", "suspect", "grade", "score"), &offer); err != nil {
		t.Fatal(err)
	}
	m, err := offer.match(new(Offer))
	if err != nil {
		t.Fatal(err)
	}
	if !m.Expires.IsZero() || m.Suspect || m.Grade != match.GradeNone || m.Score != 0 || m.ID != "closed" {
		t.Errorf("first-revision Offer_t reads %+v / %+v", m, m.Offer)
	}

	links := make([]linkInfoWire, 1)
	if err := decode(without("LinkInfo_t", "lastSeenUnixMs", "hops", "summaryTypes", "summaryGen", "summaryAgeMs"), &links[0]); err != nil {
		t.Fatal(err)
	}
	want := LinkInfo{Name: "closed", PeerID: "closed", State: "closed", SummaryAge: -1}
	if li := linkInfosFromWire(links)[0]; li != want {
		t.Errorf("first-revision LinkInfo_t reads %+v, want %+v (never seen, no summary yet)", li, want)
	}

	for name, dst := range map[string]any{"ImportReq_t": &req, "Offer_t": &offer, "LinkInfo_t": &links[0]} {
		required := sid.Type(name).Fields[0].Name
		if err := decode(without(name, required), dst); !errors.Is(err, xcode.ErrNoSuchField) {
			t.Errorf("%s without %s: err = %v, want ErrNoSuchField", name, required, err)
		}
	}
}
