package carrental

import (
	"context"
	"fmt"
	"testing"

	"cosm/internal/cosm"
	"cosm/internal/cosm/cosmtest"
	"cosm/internal/genclient"
	"cosm/internal/sidl"
)

// TestCarRentalWireFormatPinned holds the car rental service's argument
// and result bytes to one golden per operation, on three encoders of
// them: the typed client (the SID compiled in, Go structs through the
// binder: Fig. 3's static client), the dynamic path (Value trees built
// by hand, cosmtest.CheckDynamic) and the generic client's form path
// (text inputs, genclient's InvokeForm). The typed and form paths call
// the real server, so what they also pin is its argument decoding and
// result encoding.
func TestCarRentalWireFormatPinned(t *testing.T) {
	fiat := map[string]any{"model": "FIAT_Uno", "bookingDate": "1994-06-21", "days": 3}
	cases := []cosmtest.Case{
		{Name: "SelectCar", Op: "SelectCar", Args: []any{fiat},
			Result:   map[string]any{"available": true, "charge": 240.0},
			WantArgs: "10010a313939342d30362d323100000003", WantResult: "0a01406e00000000000000"},
		{Name: "Commit", Op: "Commit",
			Result:   map[string]any{"ok": true, "confirmation": "RES-0001-FIAT_Uno-3d"},
			WantArgs: "", WantResult: "1601145245532d303030312d464941545f556e6f2d3364"},
	}
	sid := sidl.CarRentalSID()
	ctx := context.Background()

	node, _, carRef := startRental(t, "cr-wire-pinned")
	tap, tapped := cosmtest.NewTap(t, carRef)
	conn, err := cosm.BindWithSID(node.Pool(), tapped, sid)
	if err != nil {
		t.Fatal(err)
	}
	var sel selectCarReturn
	cases[0].Call = func() error {
		if err := conn.Call(ctx, "SelectCar", &sel, &selectCarArgs{Model: "FIAT_Uno", BookingDate: "1994-06-21", Days: 3}); err != nil {
			return err
		}
		if want := (selectCarReturn{Available: true, Charge: 240, Currency: "USD"}); sel != want {
			return fmt.Errorf("SelectCar = %+v, want %+v", sel, want)
		}
		return nil
	}
	var book bookCarReturn
	cases[1].Call = func() error {
		if err := conn.Call(ctx, "Commit", &book); err != nil {
			return err
		}
		if want := (bookCarReturn{OK: true, Confirmation: "RES-0001-FIAT_Uno-3d"}); book != want {
			return fmt.Errorf("Commit = %+v, want %+v", book, want)
		}
		return nil
	}
	cosmtest.Run(t, tap, sid, cases)

	// The form path books on a server of its own, so that its
	// confirmation is the first booking too.
	t.Run("form", func(t *testing.T) {
		node, _, carRef := startRental(t, "cr-wire-pinned-form")
		tap, tapped := cosmtest.NewTap(t, carRef)
		b, err := genclient.New(node.Pool()).BindWithSID(tapped, sid)
		if err != nil {
			t.Fatal(err)
		}
		inputs := map[string]map[string]string{
			"SelectCar": {
				"SelectCar.selection.model":       "FIAT_Uno",
				"SelectCar.selection.bookingDate": "1994-06-21",
				"SelectCar.selection.days":        "3",
			},
		}
		for _, c := range cases {
			if _, err := b.InvokeForm(ctx, c.Op, inputs[c.Op]); err != nil {
				t.Fatalf("%s (form path): %v", c.Name, err)
			}
			c.Check(t, "form", tap.One(t))
		}
	})
}
