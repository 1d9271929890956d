package browser

import (
	"context"
	"testing"

	"cosm/internal/cosm/cosmtest"
	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// A small description keeps the pinned bodies, which carry its text,
// readable.
const pinIDL = `
module Clock {
    interface COSM_Operations {
        // Tell the time.
        string Now();
    };
};
`

// TestBrowserWireFormatPinned holds the browser's RPC surface to the
// bytes the parent commit's hand-written conversions produced, on the
// typed and on the dynamic path (see cosmtest.Run).
func TestBrowserWireFormatPinned(t *testing.T) {
	node, browserRef := startBrowserNode(t, "brw-wire-pinned")
	ctx := context.Background()
	tap, tapped := cosmtest.NewTap(t, browserRef)
	bc, err := DialBrowser(ctx, node.Pool(), tapped)
	if err != nil {
		t.Fatal(err)
	}
	clock, err := sidl.Parse(pinIDL)
	if err != nil {
		t.Fatal(err)
	}
	text, err := clock.MarshalText()
	if err != nil {
		t.Fatal(err)
	}
	target := ref.New("tcp:provider:7", "Clock")
	entry := map[string]any{"name": "Clock", "target": target, "sidlText": string(text)}
	sid, err := sidl.Parse(IDL)
	if err != nil {
		t.Fatal(err)
	}
	cosmtest.Run(t, tap, sid, []cosmtest.Case{
		{Name: "List/empty", Op: "List", Result: []any{},
			WantArgs: "", WantResult: "0100",
			Call: func() error { _, err := bc.List(ctx); return err }},
		{Name: "RegisterSID", Op: "RegisterSID", Args: []any{string(text), target},
			WantArgs: "6a696d6f64756c6520436c6f636b207b0a20202020696e7465726661636520434f534d5f4f7065726174696f6e73207b0a20202020202020202f2f2054656c6c207468652074696d652e0a2020202020202020737472696e67204e6f7728293b0a202020207d3b0a7d3b0a1c1b636f736d3a2f2f7463703a70726f76696465723a372f436c6f636b", WantResult: "",
			Call: func() error { return bc.RegisterSID(ctx, clock, target) }},
		{Name: "List", Op: "List", Result: []any{"Clock"},
			WantArgs: "", WantResult: "070105436c6f636b",
			Call: func() error { _, err := bc.List(ctx); return err }},
		{Name: "Get", Op: "Get", Args: []any{"Clock"}, Result: entry,
			WantArgs: "0605436c6f636b", WantResult: "8c0105436c6f636b1b636f736d3a2f2f7463703a70726f76696465723a372f436c6f636b696d6f64756c6520436c6f636b207b0a20202020696e7465726661636520434f534d5f4f7065726174696f6e73207b0a20202020202020202f2f2054656c6c207468652074696d652e0a2020202020202020737472696e67204e6f7728293b0a202020207d3b0a7d3b0a",
			Call: func() error { _, err := bc.Get(ctx, "Clock"); return err }},
		{Name: "Search", Op: "Search", Args: []any{"time"}, Result: []any{entry},
			WantArgs: "050474696d65", WantResult: "8d010105436c6f636b1b636f736d3a2f2f7463703a70726f76696465723a372f436c6f636b696d6f64756c6520436c6f636b207b0a20202020696e7465726661636520434f534d5f4f7065726174696f6e73207b0a20202020202020202f2f2054656c6c207468652074696d652e0a2020202020202020737472696e67204e6f7728293b0a202020207d3b0a7d3b0a",
			Call: func() error { _, err := bc.Search(ctx, "time"); return err }},
		{Name: "Search/none", Op: "Search", Args: []any{"spaceship"}, Result: []any{},
			WantArgs: "0a09737061636573686970", WantResult: "0100",
			Call: func() error { _, err := bc.Search(ctx, "spaceship"); return err }},
		{Name: "Withdraw", Op: "Withdraw", Args: []any{"Clock"},
			WantArgs: "0605436c6f636b", WantResult: "",
			Call: func() error { return bc.Withdraw(ctx, "Clock") }},
	})
}
