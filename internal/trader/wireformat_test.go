package trader

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cosm/internal/cosm"
	"cosm/internal/cosm/cosmtest"
	"cosm/internal/journal"
	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// pinIDL is a service type carrying one characterising attribute of each
// of the five literal kinds.
const pinIDL = `
module PinService {
    enum Model_t { A, B };
    interface COSM_Operations {
        void Ping();
    };
    module COSM_TraderExport {
        const string TOD = "PinService";
        const boolean Open = TRUE;
        const long long Seats = 4;
        const double Rate = 2.5;
        const string City = "HH";
        const Model_t Model = B;
    };
};
`

// TestTraderWireFormatPinned holds the trader's RPC surface still: the
// argument and result bodies of all 19 operations, driven through the
// typed client and the hosted service, must be the bytes the parent
// commit's hand-written conversion tables produced (the goldens below
// were recorded there; RequestVote's since gained the candidate's tail
// epoch, and a follower's reply its journal tail as the applied
// position), and a client and server with no Go types at all
// — hand-built values through Conn.Invoke and Call.Result — must put
// the very same bytes on the wire.
func TestTraderWireFormatPinned(t *testing.T) {
	ctx := context.Background()
	now := time.Unix(1_000_000, 0)
	repo := typemgr.NewRepo()
	if err := repo.Define(&typemgr.ServiceType{Name: "Bare"}); err != nil {
		t.Fatal(err)
	}
	tr := New("T", repo, withClock(func() time.Time { return now }))
	j, err := journal.Open(t.TempDir(), journal.Options{Fsync: journal.FsyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if err := j.Start(tr.JournalSnapshot); err != nil {
		t.Fatal(err)
	}
	tr.SetJournal(j)
	peerRepo := typemgr.NewRepo()
	if err := peerRepo.Define(&typemgr.ServiceType{Name: "Bare"}); err != nil {
		t.Fatal(err)
	}
	peer := New("P", peerRepo, withClock(func() time.Time { return time.Unix(2_000_000, 0) }))
	if _, err := peer.Export("Bare", ref.New("tcp:10.0.0.9:7000", "bare"), nil); err != nil {
		t.Fatal(err)
	}
	tr.SetLinkDialer(func(context.Context, ref.ServiceRef) (Federate, error) { return peer, nil })

	svc, err := NewService(tr)
	if err != nil {
		t.Fatal(err)
	}
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	defer node.Close()
	if err := node.Host(ServiceName, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:trd-wire-pinned"); err != nil {
		t.Fatal(err)
	}
	tap, tapped := cosmtest.NewTap(t, node.MustRefFor(ServiceName))
	c, err := DialTrader(ctx, node.Pool(), tapped)
	if err != nil {
		t.Fatal(err)
	}

	pinSID, err := sidl.Parse(pinIDL)
	if err != nil {
		t.Fatal(err)
	}
	pinText, err := pinSID.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	// Imports deduplicate by target, so every offer gets its own.
	target := func(i int) ref.ServiceRef { return ref.New(fmt.Sprintf("tcp:10.0.0.%d:7000", i), "pin") }
	props := []sidl.Property{
		{Name: "Open", Value: sidl.BoolLit(true)},
		{Name: "Seats", Value: sidl.IntLit(-4)},
		{Name: "Rate", Value: sidl.FloatLit(2.5)},
		{Name: "City", Value: sidl.StringLit("HH")},
		{Name: "Model", Value: sidl.EnumLit("B")},
	}
	prop := func(name, kind, text string) any { return map[string]any{"name": name, "kind": kind, "text": text} }
	// Arguments list properties in the caller's order, results in name
	// order.
	propsArg := []any{prop("Open", "bool", "true"), prop("Seats", "int", "-4"), prop("Rate", "float", "2.5"),
		prop("City", "string", "HH"), prop("Model", "enum", "B")}
	sorted := func(seats string) []any {
		return []any{prop("City", "string", "HH"), prop("Model", "enum", "B"), prop("Open", "bool", "true"),
			prop("Rate", "float", "2.5"), prop("Seats", "int", seats)}
	}
	importReq := NewImport("PinService", Where("Seats < 9"), OrderBy("max:Seats"), Limit(5),
		MaxPeers(2), Hedge(40*time.Millisecond), MinGrade(match.GradeExact))
	importReq.visited = []string{"U", "V"}
	const leaderHint = "cosm://tcp:10.0.0.8:7000/cosm.trader"
	summary := OfferSummary{From: "P", Gen: 77, Entries: []SummaryEntry{{Type: "Bare", Count: 3, Hops: 0}, {Type: "PinService", Count: 1, Hops: 1}}}

	steps := []cosmtest.Case{
		{Name: "TypeNames/one", Op: "TypeNames", Result: []any{"Bare"},
			WantArgs: "", WantResult: "06010442617265",
			Call: func() error { _, err := c.TypeNames(ctx); return err }},
		{Name: "Export/empty props", Op: "Export", Args: []any{"Bare", target(1), []any{}}, Result: "T/o1",
			WantArgs: "0504426172651d1c636f736d3a2f2f7463703a31302e302e302e313a373030302f70696e0100", WantResult: "0504542f6f31",
			Call: func() error { _, err := c.Export(ctx, "Bare", target(1), nil); return err }},
		{Name: "ReplPull/snapshot", Op: "ReplPull", Args: []any{"F", 0, 0, 16, 0},
			Result: map[string]any{"lastSeq": 1, "snapshotSeq": 1,
				"snapshot": `{"seq":1,"offers":[{"id":"T/o1","type":"Bare","ref":"cosm://tcp:10.0.0.1:7000/pin"}]}`, "records": []any{}},
			WantArgs: "0201460800000000000000000800000000000000000400000010080000000000000000", WantResult: "6f000000000000000000000000000000010000000000000001557b22736571223a312c226f6666657273223a5b7b226964223a22542f6f31222c2274797065223a2242617265222c22726566223a22636f736d3a2f2f7463703a31302e302e302e313a373030302f70696e227d5d7d00",
			Call: func() error { _, err := c.ReplPull(ctx, "F", 0, 0, 16, 0); return err }},
		{Name: "DefineTypeFromSID", Op: "DefineTypeFromSID", Args: []any{string(pinText)},
			WantArgs: "940392036d6f64756c652050696e53657276696365207b0a20202020656e756d204d6f64656c5f74207b20412c2042207d3b0a20202020696e7465726661636520434f534d5f4f7065726174696f6e73207b0a2020202020202020766f69642050696e6728293b0a202020207d3b0a202020206d6f64756c6520434f534d5f5472616465724578706f7274207b0a2020202020202020636f6e737420756e7369676e6564206c6f6e6720536572766963654944203d20303b0a2020202020202020636f6e737420737472696e6720544f44203d202250696e53657276696365223b0a2020202020202020636f6e737420626f6f6c65616e204f70656e203d20545255453b0a2020202020202020636f6e7374206c6f6e67206c6f6e67205365617473203d20343b0a2020202020202020636f6e737420646f75626c652052617465203d20322e353b0a2020202020202020636f6e737420737472696e672043697479203d20224848223b0a2020202020202020636f6e7374204d6f64656c5f74204d6f64656c203d20423b0a202020207d3b0a7d3b0a", WantResult: "",
			Call: func() error { return c.DefineTypeFromSID(ctx, pinSID) }},
		{Name: "Export/five literal kinds", Op: "Export", Args: []any{"PinService", target(2), propsArg}, Result: "T/o2",
			WantArgs: "0b0a50696e536572766963651d1c636f736d3a2f2f7463703a31302e302e302e323a373030302f70696e4805044f70656e04626f6f6c047472756505536561747303696e74022d34045261746505666c6f617403322e35044369747906737472696e67024848054d6f64656c04656e756d0142", WantResult: "0504542f6f32",
			Call: func() error { _, err := c.Export(ctx, "PinService", target(2), props); return err }},
		{Name: "ExportLease", Op: "ExportLease", Args: []any{"PinService", target(3), propsArg, 90}, Result: "T/o3",
			WantArgs: "0b0a50696e536572766963651d1c636f736d3a2f2f7463703a31302e302e302e333a373030302f70696e4805044f70656e04626f6f6c047472756505536561747303696e74022d34045261746505666c6f617403322e35044369747906737472696e67024848054d6f64656c04656e756d014208000000000000005a", WantResult: "0504542f6f33",
			Call: func() error { _, err := c.ExportLease(ctx, "PinService", target(3), props, 90*time.Second); return err }},
		{Name: "ExportSID", Op: "ExportSID", Args: []any{string(pinText), target(4)}, Result: "T/o4",
			WantArgs: "940392036d6f64756c652050696e53657276696365207b0a20202020656e756d204d6f64656c5f74207b20412c2042207d3b0a20202020696e7465726661636520434f534d5f4f7065726174696f6e73207b0a2020202020202020766f69642050696e6728293b0a202020207d3b0a202020206d6f64756c6520434f534d5f5472616465724578706f7274207b0a2020202020202020636f6e737420756e7369676e6564206c6f6e6720536572766963654944203d20303b0a2020202020202020636f6e737420737472696e6720544f44203d202250696e53657276696365223b0a2020202020202020636f6e737420626f6f6c65616e204f70656e203d20545255453b0a2020202020202020636f6e7374206c6f6e67206c6f6e67205365617473203d20343b0a2020202020202020636f6e737420646f75626c652052617465203d20322e353b0a2020202020202020636f6e737420737472696e672043697479203d20224848223b0a2020202020202020636f6e7374204d6f64656c5f74204d6f64656c203d20423b0a202020207d3b0a7d3b0a1d1c636f736d3a2f2f7463703a31302e302e302e343a373030302f70696e", WantResult: "0504542f6f34",
			Call: func() error { _, err := c.ExportSID(ctx, pinSID, target(4)); return err }},
		{Name: "ExportAll", Op: "ExportAll",
			Args: []any{[]any{
				map[string]any{"serviceType": "Bare", "target": target(5), "props": []any{}},
				map[string]any{"serviceType": "PinService", "target": target(6), "props": propsArg, "ttlSeconds": 30}}},
			Result:   []any{"T/o5", "T/o6"},
			WantArgs: "a4010204426172651c636f736d3a2f2f7463703a31302e302e302e353a373030302f70696e0000000000000000000a50696e536572766963651c636f736d3a2f2f7463703a31302e302e302e363a373030302f70696e05044f70656e04626f6f6c047472756505536561747303696e74022d34045261746505666c6f617403322e35044369747906737472696e67024848054d6f64656c04656e756d0142000000000000001e", WantResult: "0b0204542f6f3504542f6f36",
			Call: func() error {
				_, err := c.ExportAll(ctx, []ExportItem{{Type: "Bare", Ref: target(5)},
					{Type: "PinService", Ref: target(6), Props: props, TTL: 30 * time.Second}})
				return err
			}},
		{Name: "Replace", Op: "Replace", Args: []any{"T/o2", propsArg},
			WantArgs: "0504542f6f324805044f70656e04626f6f6c047472756505536561747303696e74022d34045261746505666c6f617403322e35044369747906737472696e67024848054d6f64656c04656e756d0142", WantResult: "",
			Call: func() error { return c.Replace(ctx, "T/o2", props) }},
		{Name: "Import", Op: "Import",
			Args: []any{map[string]any{"serviceType": "PinService", "constraint": "Seats < 9", "policy": "max:Seats", "max": 5,
				"maxPeers": 2, "hedgeMs": 40, "minGrade": "exact", "visited": []any{"U", "V"}}},
			Result: []any{
				map[string]any{"id": "T/o4", "serviceType": "PinService", "target": target(4), "props": sorted("4"), "grade": "exact", "score": 1.0},
				map[string]any{"id": "T/o2", "serviceType": "PinService", "target": target(2), "props": sorted("-4"), "grade": "exact", "score": 1.0},
				map[string]any{"id": "T/o6", "serviceType": "PinService", "target": target(6), "props": sorted("-4"),
					"expiresUnix": 1_000_030, "grade": "exact", "score": 1.0},
				map[string]any{"id": "T/o3", "serviceType": "PinService", "target": target(3), "props": sorted("-4"),
					"expiresUnix": 1_000_090, "suspect": true, "grade": "exact", "score": 1.0}},
			WantArgs: "3e0a50696e53657276696365095365617473203c2039096d61783a536561747300000005000000000000000200000000000000280565786163740201550156", WantResult: "b0040404542f6f340a50696e536572766963651c636f736d3a2f2f7463703a31302e302e302e343a373030302f70696e05044369747906737472696e67024848054d6f64656c04656e756d0142044f70656e04626f6f6c0474727565045261746505666c6f617403322e3505536561747303696e7401340000000000000000000565786163743ff000000000000004542f6f320a50696e536572766963651c636f736d3a2f2f7463703a31302e302e302e323a373030302f70696e05044369747906737472696e67024848054d6f64656c04656e756d0142044f70656e04626f6f6c0474727565045261746505666c6f617403322e3505536561747303696e74022d340000000000000000000565786163743ff000000000000004542f6f360a50696e536572766963651c636f736d3a2f2f7463703a31302e302e302e363a373030302f70696e05044369747906737472696e67024848054d6f64656c04656e756d0142044f70656e04626f6f6c0474727565045261746505666c6f617403322e3505536561747303696e74022d3400000000000f425e000565786163743ff000000000000004542f6f330a50696e536572766963651c636f736d3a2f2f7463703a31302e302e302e333a373030302f70696e05044369747906737472696e67024848054d6f64656c04656e756d0142044f70656e04626f6f6c0474727565045261746505666c6f617403322e3505536561747303696e74022d3400000000000f429a010565786163743ff0000000000000",
			Before: func() {
				if err := tr.MarkSuspect("T/o3", true); err != nil {
					t.Fatal(err)
				}
			},
			Call: func() error { _, err := c.ImportGraded(ctx, importReq); return err }},
		{Name: "Import/zero request, no match", Op: "Import",
			Args: []any{map[string]any{"serviceType": "Nothing"}}, Result: []any{},
			WantArgs: "20074e6f7468696e67000000000000000000000000000000000000000000000000", WantResult: "0100",
			Call: func() error { _, err := c.Import(ctx, ImportRequest{Type: "Nothing"}); return err }},
		{Name: "Withdraw", Op: "Withdraw", Args: []any{"T/o4"},
			WantArgs: "0504542f6f34", WantResult: "",
			Call: func() error { return c.Withdraw(ctx, "T/o4") }},
		{Name: "WithdrawAll", Op: "WithdrawAll", Args: []any{[]any{"T/o9", "T/o1", "T/o5"}}, Result: 2,
			WantArgs: "100304542f6f3904542f6f3104542f6f35", WantResult: "0400000002",
			Call: func() error { _, err := c.WithdrawAll(ctx, []string{"T/o9", "T/o1", "T/o5"}); return err }},
		{Name: "WithdrawAll/empty", Op: "WithdrawAll", Args: []any{[]any{}}, Result: 0,
			WantArgs: "0100", WantResult: "0400000000",
			Call: func() error { _, err := c.WithdrawAll(ctx, nil); return err }},
		{Name: "RemoveType", Op: "RemoveType", Args: []any{"Bare"},
			WantArgs: "050442617265", WantResult: "",
			Call: func() error { return c.RemoveType(ctx, "Bare") }},
		{Name: "ReplPull/records", Op: "ReplPull", Args: []any{"F", 0, 9, 2, 0},
			Result: map[string]any{"lastSeq": 11, "records": []any{
				map[string]any{"seq": 10, "payload": `{"op":"withdraw_all","ids":["T/o9","T/o1","T/o5"]}`},
				map[string]any{"seq": 11, "payload": `{"op":"removetype","name":"Bare"}`}}},
			WantArgs: "0201460800000000000000000800000000000000090400000002080000000000000000", WantResult: "7f0000000000000000000000000000000b00000000000000000002000000000000000a327b226f70223a2277697468647261775f616c6c222c22696473223a5b22542f6f39222c22542f6f31222c22542f6f35225d7d000000000000000b217b226f70223a2272656d6f766574797065222c226e616d65223a2242617265227d",
			Call: func() error { _, err := c.ReplPull(ctx, "F", 0, 9, 2, 0); return err }},
		{Name: "Promote", Op: "Promote", Args: []any{5},
			WantArgs: "080000000000000005", WantResult: "",
			Call: func() error { return c.Promote(ctx, 5) }},
		{Name: "ReplStatus", Op: "ReplStatus",
			Result:   map[string]any{"role": "leader", "epoch": 5, "lastSeq": 12, "applied": 12},
			WantArgs: "", WantResult: "20066c65616465720000000000000005000000000000000c000000000000000c00",
			Call: func() error { _, err := c.ReplStatus(ctx); return err }},
		{Name: "RequestVote", Op: "RequestVote", Args: []any{"cand", 9, 100, 5},
			Result:   map[string]any{"role": "leader", "epoch": 5, "applied": 12},
			WantArgs: "050463616e64080000000000000009080000000000000064080000000000000005", WantResult: "2100066c65616465720000000000000005000000000000000c000000000000000000",
			Call: func() error { _, err := c.RequestVote(ctx, "cand", 9, 100, 5); return err }},
		{Name: "LinkAdd", Op: "LinkAdd", Args: []any{"munich", target(7)},
			WantArgs: "07066d756e6963681d1c636f736d3a2f2f7463703a31302e302e302e373a373030302f70696e", WantResult: "",
			Call: func() error { return c.LinkAdd(ctx, "munich", target(7)) }},
		{Name: "LinkList/never seen", Op: "LinkList",
			Result:   []any{map[string]any{"name": "munich", "peerId": "P", "state": "closed", "summaryAgeMs": -1}},
			WantArgs: "", WantResult: "3101066d756e696368015006636c6f736564000000000000000000000000000000000000000000000000ffffffffffffffff",
			Call: func() error { _, err := c.LinkList(ctx); return err }},
		{Name: "SummaryExchange", Op: "SummaryExchange",
			Args: []any{map[string]any{"from": "P", "gen": 77, "entries": []any{
				map[string]any{"serviceType": "Bare", "count": 3},
				map[string]any{"serviceType": "PinService", "count": 1, "hops": 1}}}},
			Result: map[string]any{"from": "T", "gen": 1_000_000_000_000_000, "entries": []any{
				map[string]any{"serviceType": "Bare", "count": 3, "hops": 1},
				map[string]any{"serviceType": "PinService", "count": 3}}},
			WantArgs: "2b0150000000000000004d02044261726500000003000000000a50696e536572766963650000000100000001", WantResult: "2b015400038d7ea4c6800002044261726500000003000000010a50696e536572766963650000000300000000",
			Call: func() error { _, err := c.ExchangeSummary(ctx, summary); return err }},
		{Name: "LinkList/gossiped", Op: "LinkList",
			Result: []any{map[string]any{"name": "munich", "peerId": "P", "state": "closed", "lastSeenUnixMs": 1_000_002_000,
				"hops": 1, "summaryTypes": 1, "summaryGen": 2_000_000_000_000_000, "summaryAgeMs": 1500}},
			WantArgs: "", WantResult: "3101066d756e696368015006636c6f736564000000003b9ad1d0000000010000000100071afd498d000000000000000005dc",
			Before: func() {
				now = now.Add(2 * time.Second)
				if pushed, failed := tr.GossipRound(ctx, 0); pushed != 1 || failed != 0 {
					t.Fatalf("gossip round: pushed %d, failed %d", pushed, failed)
				}
				now = now.Add(1500 * time.Millisecond)
			},
			Call: func() error { _, err := c.LinkList(ctx); return err }},
		{Name: "LinkRemove", Op: "LinkRemove", Args: []any{"munich"},
			WantArgs: "07066d756e696368", WantResult: "",
			Call: func() error { return c.LinkRemove(ctx, "munich") }},
		{Name: "LinkList/empty", Op: "LinkList", Result: []any{},
			WantArgs: "", WantResult: "0100",
			Call: func() error { _, err := c.LinkList(ctx); return err }},
		{Name: "TypeNames/after remove", Op: "TypeNames", Result: []any{"PinService"},
			WantArgs: "", WantResult: "0c010a50696e53657276696365",
			Call: func() error { _, err := c.TypeNames(ctx); return err }},
		{Name: "ReplStatus/follower", Op: "ReplStatus",
			Result:   map[string]any{"role": "follower", "epoch": 5, "lastSeq": 12, "leader": leaderHint},
			WantArgs: "", WantResult: "4608666f6c6c6f7765720000000000000005000000000000000c000000000000000024636f736d3a2f2f7463703a31302e302e302e383a373030302f636f736d2e747261646572",
			Before: func() { tr.SetFollower(leaderHint) },
			Call:   func() error { _, err := c.ReplStatus(ctx); return err }},
		{Name: "RequestVote/granted", Op: "RequestVote", Args: []any{"cand", 9, 100, 5},
			Result:   map[string]any{"granted": true, "role": "follower", "epoch": 5, "applied": 12, "leader": leaderHint, "voteEpoch": 9},
			WantArgs: "050463616e64080000000000000009080000000000000064080000000000000005", WantResult: "470108666f6c6c6f7765720000000000000005000000000000000c24636f736d3a2f2f7463703a31302e302e302e383a373030302f636f736d2e7472616465720000000000000009",
			Call: func() error { _, err := c.RequestVote(ctx, "cand", 9, 100, 5); return err }},
	}

	if got := len(svc.SID().Ops); got != 19 {
		t.Fatalf("trader SID declares %d operations, want 19", got)
	}
	cosmtest.Run(t, tap, svc.SID(), steps)
}
