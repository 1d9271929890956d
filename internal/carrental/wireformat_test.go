package carrental

import (
	"context"
	"testing"

	"cosm/internal/cosm"
	"cosm/internal/cosm/cosmtest"
	"cosm/internal/sidl"
	"cosm/internal/xcode"
)

// TestCarRentalWireFormatPinned holds the car rental server's replies to
// the bytes the parent commit's hand-written handlers produced. The
// service has no typed client — its callers are generic — so the
// arguments are hand-built on both paths; what the first path pins is
// the real server's argument decoding and result encoding.
func TestCarRentalWireFormatPinned(t *testing.T) {
	node, _, carRef := startRental(t, "cr-wire-pinned")
	ctx := context.Background()
	tap, tapped := cosmtest.NewTap(t, carRef)
	sid := sidl.CarRentalSID()
	conn, err := cosm.BindWithSID(node.Pool(), tapped, sid)
	if err != nil {
		t.Fatal(err)
	}
	invoke := func(op string, args ...any) func() error {
		return func() error {
			var vals []*xcode.Value
			o, _ := sid.Op(op)
			for i, a := range args {
				v, err := cosmtest.Build(o.Params[i].Type, a)
				if err != nil {
					return err
				}
				vals = append(vals, v)
			}
			_, err := conn.Invoke(ctx, op, vals...)
			return err
		}
	}
	fiat := map[string]any{"model": "FIAT_Uno", "bookingDate": "1994-06-21", "days": 3}
	cosmtest.Run(t, tap, sid, []cosmtest.Case{
		{Name: "SelectCar", Op: "SelectCar", Args: []any{fiat},
			Result:   map[string]any{"available": true, "charge": 240.0},
			WantArgs: "10010a313939342d30362d323100000003", WantResult: "0a01406e00000000000000",
			Call: invoke("SelectCar", fiat)},
		{Name: "Commit", Op: "Commit",
			Result:   map[string]any{"ok": true, "confirmation": "RES-0001-FIAT_Uno-3d"},
			WantArgs: "", WantResult: "1601145245532d303030312d464941545f556e6f2d3364",
			Call: invoke("Commit")},
	})
}
