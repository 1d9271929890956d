package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"

	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/trader"
	"cosm/internal/typemgr"
)

// newRand derives an independent deterministic stream from the run
// seed and a purpose tag, so the offers of a fixture and the op
// sequence of segment 3 never share random numbers: changing how many
// one consumer draws cannot shift another's inputs.
func newRand(seed int64, tag string, n int) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%d/%s/%d", seed, tag, n)
	return rand.New(rand.NewSource(int64(h.Sum64())))
}

// hierLevels is the depth of the declared subtype chain L0 <- ... <- L4
// the conformant imports resolve.
const hierLevels = 5

func levelName(i int) string { return fmt.Sprintf("L%d", i) }

// marketRepo defines the flat CarRentalService type of the paper plus
// the five-level chain: every level carries Price and Rating (the two
// attributes range constraints address) and level k adds A1..Ak.
func marketRepo() (*typemgr.Repo, error) {
	repo := typemgr.NewRepo()
	st, err := typemgr.FromSID(sidl.CarRentalSID())
	if err != nil {
		return nil, err
	}
	if err := repo.Define(st); err != nil {
		return nil, err
	}
	for i := 0; i < hierLevels; i++ {
		lt := &typemgr.ServiceType{
			Name: levelName(i),
			Attrs: []typemgr.AttrDef{
				{Name: "Price", Type: sidl.Basic(sidl.Float64)},
				{Name: "Rating", Type: sidl.Basic(sidl.Int64)},
			},
		}
		if i > 0 {
			lt.Super = levelName(i - 1)
		}
		for k := 1; k <= i; k++ {
			lt.Attrs = append(lt.Attrs, typemgr.AttrDef{Name: fmt.Sprintf("A%d", k), Type: sidl.Basic(sidl.Int64)})
		}
		if err := repo.Define(lt); err != nil {
			return nil, err
		}
	}
	return repo, nil
}

// offerSpec is one generated offer: what to export.
type offerSpec struct {
	typ   string
	ref   ref.ServiceRef
	props []sidl.Property
}

var carModels = []string{"AUDI", "FIAT_Uno", "VW_Golf"}

// spread returns n values evenly spaced over [lo, hi) in seeded order.
// Every seed thus stores the same multiset of attribute values — so a
// range constraint selects exactly as many offers whatever the seed,
// and allocation counts do not wander with it — while which offer
// carries which value, and therefore every result, differs.
func spread(rng *rand.Rand, n int, lo, hi float64) []float64 {
	out := make([]float64, n)
	for i, k := range rng.Perm(n) {
		out[i] = lo + (hi-lo)*float64(k)/float64(n)
	}
	return out
}

// carOffers generates n CarRentalService offers: charges spread over
// [40,140) to the cent, milages over [10000,100000). first numbers the
// service references, which must be unique within a trader because
// imports deduplicate by reference.
func carOffers(rng *rand.Rand, n, first int) []offerSpec {
	charges, milages := spread(rng, n, 40, 140), spread(rng, n, 10000, 100000)
	out := make([]offerSpec, n)
	for i := range out {
		out[i] = offerSpec{
			typ: "CarRentalService",
			ref: numberedRef(10, first+i, "CarRentalService"),
			props: []sidl.Property{
				{Name: "CarModel", Value: sidl.EnumLit(carModels[rng.Intn(len(carModels))])},
				{Name: "AverageMilage", Value: sidl.IntLit(int64(milages[i]))},
				{Name: "ChargePerDay", Value: sidl.FloatLit(math.Round(charges[i]*100) / 100)},
				{Name: "ChargeCurrency", Value: sidl.EnumLit("USD")},
			},
		}
	}
	return out
}

// levelOffers generates n offers cycling through the hierarchy levels,
// Price and Rating spread like a car's charge and milage.
func levelOffers(rng *rand.Rand, n, first int) []offerSpec {
	prices, ratings := spread(rng, n, 40, 140), spread(rng, n, 10000, 100000)
	out := make([]offerSpec, n)
	for i := range out {
		level := i % hierLevels
		props := []sidl.Property{
			{Name: "Price", Value: sidl.FloatLit(math.Round(prices[i]*100) / 100)},
			{Name: "Rating", Value: sidl.IntLit(int64(ratings[i]))},
		}
		for k := 1; k <= level; k++ {
			props = append(props, sidl.Property{Name: fmt.Sprintf("A%d", k), Value: sidl.IntLit(int64(k))})
		}
		out[i] = offerSpec{typ: levelName(level), ref: numberedRef(11, first+i, levelName(level)), props: props}
	}
	return out
}

// numberedRef is the i-th distinct reference in the 'net'.x.y.z block.
func numberedRef(net, i int, service string) ref.ServiceRef {
	return ref.New(fmt.Sprintf("tcp:%d.%d.%d.%d:7000", net, i/62500, i/250%250, i%250), service)
}

// exportAll registers specs in order, so two traders with the same id
// fed the same specs assign the same offer IDs — which is what lets the
// oracle comparison be ID-for-ID.
func exportAll(tr *trader.Trader, specs []offerSpec) error {
	for _, s := range specs {
		if _, err := tr.Export(s.typ, s.ref, s.props); err != nil {
			return err
		}
	}
	return nil
}

// query is one import request plus what its result is ordered by, for
// the per-op output check.
type query struct {
	req trader.ImportRequest
	// orderProp is the float property the min: policy sorts by.
	orderProp string
}

// checkOffers is the per-op output check every workload applies: the
// result is non-empty, within Max, and ordered as the policy promises.
func checkOffers(q query, offers []*trader.Offer) error {
	if len(offers) == 0 {
		return fmt.Errorf("import %q %q: empty result", q.req.Type, q.req.Constraint)
	}
	if q.req.Max > 0 && len(offers) > q.req.Max {
		return fmt.Errorf("import %q: %d offers exceed Max %d", q.req.Type, len(offers), q.req.Max)
	}
	prev := 0.0
	for i, o := range offers {
		l, ok := o.Props[q.orderProp]
		if !ok {
			return fmt.Errorf("offer %s lacks %s", o.ID, q.orderProp)
		}
		if i > 0 && l.Float < prev {
			return fmt.Errorf("import %q: result not ordered by %s at %d", q.req.Type, q.orderProp, i)
		}
		prev = l.Float
	}
	return nil
}

func offersOf(ms []trader.Match) []*trader.Offer {
	out := make([]*trader.Offer, len(ms))
	for i := range ms {
		out[i] = ms[i].Offer
	}
	return out
}

// sameIDs reports whether got and want list the same offers in the
// same order.
func sameIDs(got, want []*trader.Offer) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d offers, oracle has %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID != want[i].ID {
			return fmt.Errorf("offer %d is %s, oracle has %s", i, got[i].ID, want[i].ID)
		}
	}
	return nil
}
