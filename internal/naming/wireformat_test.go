package naming

import (
	"context"
	"testing"

	"cosm/internal/cosm/cosmtest"
	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// TestNamingWireFormatPinned holds the name server's and the group
// manager's RPC surfaces to the bytes the parent commit's hand-written
// conversions produced, on the typed and on the dynamic path (see
// cosmtest.Run).
func TestNamingWireFormatPinned(t *testing.T) {
	node, nameRef, groupRef := startNamingNode(t, "ns-wire-pinned")
	ctx := context.Background()
	target, other := ref.New("tcp:far:9", "CarRentalService"), ref.New("tcp:near:7", "Bikes")

	tap, tapped := cosmtest.NewTap(t, nameRef)
	nc, err := DialNameServer(ctx, node.Pool(), tapped)
	if err != nil {
		t.Fatal(err)
	}
	sid, err := sidl.Parse(IDL)
	if err != nil {
		t.Fatal(err)
	}
	cosmtest.Run(t, tap, sid, []cosmtest.Case{
		{Name: "List/empty", Op: "List", Args: []any{""}, Result: []any{},
			WantArgs: "0100", WantResult: "0100",
			Call: func() error { _, err := nc.List(ctx, ""); return err }},
		{Name: "Register", Op: "Register", Args: []any{"market/cars", target},
			WantArgs: "0c0b6d61726b65742f636172732221636f736d3a2f2f7463703a6661723a392f43617252656e74616c53657276696365", WantResult: "",
			Call: func() error { return nc.Register(ctx, "market/cars", target) }},
		{Name: "Rebind", Op: "Rebind", Args: []any{"market/bikes", other},
			WantArgs: "0d0c6d61726b65742f62696b65731817636f736d3a2f2f7463703a6e6561723a372f42696b6573", WantResult: "",
			Call: func() error { return nc.Rebind(ctx, "market/bikes", other) }},
		{Name: "Resolve", Op: "Resolve", Args: []any{"market/cars"}, Result: target,
			WantArgs: "0c0b6d61726b65742f63617273", WantResult: "2221636f736d3a2f2f7463703a6661723a392f43617252656e74616c53657276696365",
			Call: func() error { _, err := nc.Resolve(ctx, "market/cars"); return err }},
		{Name: "List", Op: "List", Args: []any{"market/"},
			Result: []any{map[string]any{"name": "market/bikes", "target": other},
				map[string]any{"name": "market/cars", "target": target}},
			WantArgs: "08076d61726b65742f", WantResult: "54020c6d61726b65742f62696b657317636f736d3a2f2f7463703a6e6561723a372f42696b65730b6d61726b65742f6361727321636f736d3a2f2f7463703a6661723a392f43617252656e74616c53657276696365",
			Call: func() error { _, err := nc.List(ctx, "market/"); return err }},
		{Name: "Unregister", Op: "Unregister", Args: []any{"market/cars"},
			WantArgs: "0c0b6d61726b65742f63617273", WantResult: "",
			Call: func() error { return nc.Unregister(ctx, "market/cars") }},
	})

	gtap, gtapped := cosmtest.NewTap(t, groupRef)
	gc, err := DialGroups(ctx, node.Pool(), gtapped)
	if err != nil {
		t.Fatal(err)
	}
	gsid, err := sidl.Parse(GroupIDL)
	if err != nil {
		t.Fatal(err)
	}
	cosmtest.Run(t, gtap, gsid, []cosmtest.Case{
		{Name: "Groups/empty", Op: "Groups", Result: []any{},
			WantArgs: "", WantResult: "0100",
			Call: func() error { _, err := gc.Groups(ctx); return err }},
		{Name: "Join", Op: "Join", Args: []any{"traders", "tcp:a:1"},
			WantArgs: "08077472616465727308077463703a613a31", WantResult: "",
			Call: func() error { return gc.Join(ctx, "traders", "tcp:a:1") }},
		{Name: "Join/second", Op: "Join", Args: []any{"traders", "tcp:b:2"},
			WantArgs: "08077472616465727308077463703a623a32", WantResult: "",
			Call: func() error { return gc.Join(ctx, "traders", "tcp:b:2") }},
		{Name: "Members", Op: "Members", Args: []any{"traders"}, Result: []any{"tcp:a:1", "tcp:b:2"},
			WantArgs: "080774726164657273", WantResult: "1102077463703a613a31077463703a623a32",
			Call: func() error { _, err := gc.Members(ctx, "traders"); return err }},
		{Name: "Leave", Op: "Leave", Args: []any{"traders", "tcp:a:1"},
			WantArgs: "08077472616465727308077463703a613a31", WantResult: "",
			Call: func() error { return gc.Leave(ctx, "traders", "tcp:a:1") }},
		{Name: "Groups", Op: "Groups", Result: []any{"traders"},
			WantArgs: "", WantResult: "09010774726164657273",
			Call: func() error { _, err := gc.Groups(ctx); return err }},
	})
}
