package genclient

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"cosm/internal/cosm"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/wire"
	"cosm/internal/xcode"
)

// selection is SelectCar_t's base members, as a car rental server
// compiled against the base SID binds them.
type selection struct {
	Model       string
	BookingDate string
	Days        int64
}

// recordingRental is what a car rental server of hostRecordingRental
// last received, and what it answers with: results the test sets before
// each call.
type recordingRental struct {
	got             selection
	selRet, bookRet *xcode.Value
}

// hostRecordingRental hosts the car rental service under sid on
// loop:loopName.
func hostRecordingRental(t *testing.T, sid *sidl.SID, loopName string) (*recordingRental, ref.ServiceRef) {
	t.Helper()
	rec := &recordingRental{}
	svc, err := cosm.NewService(sid)
	if err != nil {
		t.Fatal(err)
	}
	svc.MustHandle("SelectCar", func(call *cosm.Call) error {
		rec.got = selection{}
		if err := call.Args(&rec.got); err != nil {
			return err
		}
		// A decoded string is a window of the request, which outlives
		// no call.
		rec.got.BookingDate = strings.Clone(rec.got.BookingDate)
		call.Result = rec.selRet
		return nil
	})
	svc.MustHandle("Commit", func(call *cosm.Call) error {
		call.Result = rec.bookRet
		return nil
	})
	node := cosm.NewNode(cosm.WithNodeLog(func(string, ...any) {}))
	t.Cleanup(func() { _ = node.Close() })
	if err := node.Host(sid.ServiceName, svc); err != nil {
		t.Fatal(err)
	}
	if _, err := node.ListenAndServe("loop:" + loopName); err != nil {
		t.Fatal(err)
	}
	return rec, node.MustRefFor(sid.ServiceName)
}

// extendedCarRentalIDL extends the car rental SID at random, as section
// 3.1 lets a provider extend a base description: each record type gains
// up to three members at random positions, up to three embedded modules
// this implementation does not know are added, and the interface and
// every embedded module follow the types in random order.
func extendedCarRentalIDL(rng *rand.Rand, base *sidl.SID) (idl string, unknown int) {
	ext := base.Clone()
	extras := []*sidl.Type{sidl.Basic(sidl.Int32), sidl.Basic(sidl.String), sidl.Basic(sidl.Float64),
		sidl.Basic(sidl.Bool), sidl.SequenceOf(sidl.Basic(sidl.String)), base.Type("Currency_t")}
	for i, t := range ext.Types {
		if t.Kind != sidl.Struct {
			continue
		}
		fields := slices.Clone(t.Fields)
		for n := rng.Intn(4); n > 0; n-- {
			f := sidl.Field{Name: fmt.Sprintf("ext%d", n), Type: extras[rng.Intn(len(extras))]}
			fields = slices.Insert(fields, rng.Intn(len(fields)+1), f)
		}
		ext.Types[i] = sidl.StructOf(t.Name, fields...)
	}
	unknown = rng.Intn(4)
	for n := 0; n < unknown; n++ {
		ext.Unknown = append(ext.Unknown, sidl.RawModule{
			Name: fmt.Sprintf("Vendor%d", n),
			Body: fmt.Sprintf("const long Level = %d;\nmodule Nested { struct Note_t { string text; }; };", rng.Intn(100)),
		})
	}
	// The printer puts each declaration of the service module at one
	// indentation, the types first: shuffle what follows them.
	text := ext.IDL()
	head, body, _ := strings.Cut(text, "{\n")
	var decls []string
	for _, line := range strings.SplitAfter(strings.TrimSuffix(body, "};\n"), "\n") {
		if strings.HasPrefix(line, "    ") && line[4] != ' ' && line != "    };\n" {
			decls = append(decls, "")
		}
		decls[len(decls)-1] += line
	}
	rest := decls[len(ext.Types):]
	rng.Shuffle(len(rest), func(i, j int) { rest[i], rest[j] = rest[j], rest[i] })
	return head + "{\n" + strings.Join(decls, "") + "};\n", unknown
}

// TestRecordSubtypePolymorphismProperty is section 3.1's record subtype
// polymorphism over the generic client's Value path, across extensions
// drawn at random (extendedCarRentalIDL). A client whose code knows only
// the base SID's names binds to the extended service by SID transfer and
// books through the form and through a Value it builds: the server must
// receive the base members it sent, and the client must decode the
// extended results, base members and extensions alike. The other way
// round, the client hands the base service a value of the extended
// argument type, and the base service receives its projection.
func TestRecordSubtypePolymorphismProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	ctx := context.Background()
	pool := wire.NewPool()
	t.Cleanup(func() { _ = pool.Close() })
	base := sidl.CarRentalSID()
	baseRec, baseRef := hostRecordingRental(t, base, "subtype-base")
	baseRec.selRet = xcode.Zero(base.Type("SelectCarReturn_t"))
	models := base.Type("CarModel_t").Literals
	for round := 0; round < 40; round++ {
		text, unknown := extendedCarRentalIDL(rng, base)
		ext, err := sidl.Parse(text)
		if err != nil {
			t.Fatalf("round %d: the extended SID does not parse: %v\n%s", round, err, text)
		}
		rec, extRef := hostRecordingRental(t, ext, fmt.Sprintf("subtype-%d", round))
		b, err := New(pool).Bind(ctx, extRef)
		if err != nil {
			t.Fatalf("round %d: bind: %v", round, err)
		}
		sid := b.SID()
		if len(sid.Unknown) != unknown || b.State() != base.FSM.Initial {
			t.Fatalf("round %d: bound with %d unknown modules in state %q, want %d in %q\n%s",
				round, len(sid.Unknown), b.State(), unknown, base.FSM.Initial, text)
		}
		for _, bt := range base.Types {
			if err := sid.Type(bt.Name).ExplainConformance(bt); err != nil {
				t.Fatalf("round %d: %s: %v", round, bt.Name, err)
			}
		}
		selRetT, bookRetT := sid.Type("SelectCarReturn_t"), sid.Type("BookCarReturn_t")
		check := func(path string, res *cosm.Result, err error, rec *recordingRental, sent *xcode.Value, want selection) {
			t.Helper()
			if err != nil {
				t.Fatalf("round %d, %s: %v\n%s", round, path, err, text)
			}
			if rec.got != want {
				t.Fatalf("round %d, %s: the server received %+v, want %+v\n%s", round, path, rec.got, want, text)
			}
			if !res.Value.Equal(sent) {
				t.Fatalf("round %d, %s: decoded %s, sent %s\n%s", round, path, res.Value, sent, text)
			}
		}

		// The form: text inputs for the base members only.
		want := selection{Model: models[rng.Intn(len(models))], BookingDate: fmt.Sprintf("1994-%02d-%02d", 1+rng.Intn(12), 1+rng.Intn(28)), Days: 1 + rng.Int63n(30)}
		rec.selRet = xcode.Random(rng, selRetT)
		res, err := b.InvokeForm(ctx, "SelectCar", map[string]string{
			"SelectCar.selection.model":       want.Model,
			"SelectCar.selection.bookingDate": want.BookingDate,
			"SelectCar.selection.days":        fmt.Sprint(want.Days),
		})
		check("form", res, err, rec, rec.selRet, want)

		// A Value of the extended argument type, extensions and all.
		arg := xcode.Random(rng, sid.Type("SelectCar_t"))
		model, _ := arg.Field("model")
		date, _ := arg.Field("bookingDate")
		days, _ := arg.Field("days")
		want = selection{Model: model.EnumLiteral(), BookingDate: date.Str, Days: days.Int}
		rec.selRet = xcode.Random(rng, selRetT)
		res, err = b.Invoke(ctx, "SelectCar", arg)
		check("value", res, err, rec, rec.selRet, want)

		rec.bookRet = xcode.Random(rng, bookRetT)
		res, err = b.Invoke(ctx, "Commit")
		check("commit", res, err, rec, rec.bookRet, want)
		if b.State() != base.FSM.Initial {
			t.Fatalf("round %d: after Commit the binding is in state %q", round, b.State())
		}

		// The same value where the base service declares SelectCar_t.
		bb, err := New(pool).Bind(ctx, baseRef)
		if err != nil {
			t.Fatal(err)
		}
		res, err = bb.Invoke(ctx, "SelectCar", arg)
		check("projected", res, err, baseRec, baseRec.selRet, want)
	}
}
