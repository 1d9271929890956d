package activity

import (
	"context"
	"strings"
	"testing"

	"cosm/internal/cosm"
	"cosm/internal/cosm/cosmtest"
	"cosm/internal/sidl"
)

// TestActivityWireFormatPinned holds the activity manager's RPC surface
// and the participant operations its two-phase commit drives to the
// bytes the parent commit's hand-written conversions produced, on the
// typed and on the dynamic path (see cosmtest.Run). Activity identifiers
// are random, so the taps mask them.
func TestActivityWireFormatPinned(t *testing.T) {
	node := startNode(t, "act-wire-pinned")
	ctx := context.Background()
	masked := strings.Repeat("x", len("act-0123456789abcdef"))

	// A pure participant, hosted from its standalone description.
	psid, err := sidl.Parse(ParticipantIDL)
	if err != nil {
		t.Fatal(err)
	}
	psvc, err := cosm.NewService(psid)
	if err != nil {
		t.Fatal(err)
	}
	if err := HandleParticipant(psvc, newSeatStore(4)); err != nil {
		t.Fatal(err)
	}
	if err := node.Host("Participant", psvc); err != nil {
		t.Fatal(err)
	}
	ptap, participant := cosmtest.NewTap(t, node.MustRefFor("Participant"))

	m := NewManager(node.Pool())
	msvc, err := NewService(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := node.Host(ServiceName, msvc); err != nil {
		t.Fatal(err)
	}
	tap, tapped := cosmtest.NewTap(t, node.MustRefFor(ServiceName))
	ac, err := DialManager(ctx, node.Pool(), tapped)
	if err != nil {
		t.Fatal(err)
	}

	var id string
	begin := func() (err error) {
		id, err = ac.Begin(ctx)
		tap.Mask(id)
		ptap.Mask(id)
		return err
	}
	// The manager's calls to the participant, in the order two-phase
	// commit and abort make them.
	var driven []cosmtest.Exchange
	cosmtest.Run(t, tap, msvc.SID(), []cosmtest.Case{
		{Name: "Begin", Op: "Begin", Result: masked,
			WantArgs: "", WantResult: "15147878787878787878787878787878787878787878",
			Call: begin},
		{Name: "Join", Op: "Join", Args: []any{masked, participant},
			WantArgs: "151478787878787878787878787878787878787878784544636f736d3a2f2f6c6f6f703a7461702d5061727469636970616e742d54657374416374697669747957697265466f726d617450696e6e65642f5061727469636970616e74", WantResult: "",
			Call: func() error { return ac.Join(ctx, id, participant) }},
		{Name: "Status", Op: "Status", Args: []any{masked}, Result: "active",
			WantArgs: "15147878787878787878787878787878787878787878", WantResult: "0706616374697665",
			Call: func() error { _, err := ac.Status(ctx, id); return err }},
		{Name: "Commit", Op: "Commit", Args: []any{masked}, Result: true,
			WantArgs: "15147878787878787878787878787878787878787878", WantResult: "0101",
			Call: func() error {
				_, err := ac.Commit(ctx, id)
				driven = append(driven, ptap.Take()...)
				return err
			}},
		{Name: "Begin/second", Op: "Begin", Result: masked,
			WantArgs: "", WantResult: "15147878787878787878787878787878787878787878",
			Call: begin},
		{Name: "Join/second", Op: "Join", Args: []any{masked, participant},
			WantArgs: "151478787878787878787878787878787878787878784544636f736d3a2f2f6c6f6f703a7461702d5061727469636970616e742d54657374416374697669747957697265466f726d617450696e6e65642f5061727469636970616e74", WantResult: "",
			Call: func() error { return ac.Join(ctx, id, participant) }},
		{Name: "Abort", Op: "Abort", Args: []any{masked},
			WantArgs: "15147878787878787878787878787878787878787878", WantResult: "",
			Call: func() error {
				err := ac.Abort(ctx, id)
				driven = append(driven, ptap.Take()...)
				return err
			}},
	})

	participantCases := []cosmtest.Case{
		{Name: "TxPrepare", Op: OpPrepare, Args: []any{masked}, Result: true,
			WantArgs: "15147878787878787878787878787878787878787878", WantResult: "0101"},
		{Name: "TxCommit", Op: OpCommit, Args: []any{masked},
			WantArgs: "15147878787878787878787878787878787878787878", WantResult: ""},
		{Name: "TxAbort", Op: OpAbort, Args: []any{masked},
			WantArgs: "15147878787878787878787878787878787878787878", WantResult: ""},
	}
	if len(driven) != len(participantCases) {
		t.Fatalf("manager made %d participant calls, want prepare, commit, abort: %+v", len(driven), driven)
	}
	for i, c := range participantCases {
		c.Check(t, "typed", driven[i])
	}
	cosmtest.CheckDynamic(t, psid, participantCases)
}
