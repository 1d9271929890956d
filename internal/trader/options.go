package trader

import (
	"time"

	"cosm/internal/match"
)

// ImportOption configures one import request built with NewImport.
// Options replace positional ImportRequest construction at call sites;
// ImportRequest itself remains the wire struct of the trader protocol.
type ImportOption func(*ImportRequest)

// NewImport builds an import request for a service type:
//
//	offers, err := trd.Import(ctx, trader.NewImport("CarRentalService",
//	        trader.Where("CarModel == FIAT_Uno && ChargePerDay < 90"),
//	        trader.OrderBy("min:ChargePerDay"),
//	        trader.Limit(3),
//	        trader.Hops(1)))
//
// The zero request (no options) matches every offer of the type at the
// local trader in stable ID order.
func NewImport(serviceType string, opts ...ImportOption) ImportRequest {
	req := ImportRequest{Type: serviceType}
	for _, o := range opts {
		o(&req)
	}
	return req
}

// Where filters offers by a constraint expression over their
// characterising properties (see Constraint for the grammar).
func Where(constraint string) ImportOption {
	return func(req *ImportRequest) { req.Constraint = constraint }
}

// OrderBy orders the result by a selection policy: "first", "random",
// "min:<Prop>", "max:<Prop>" or the score-aware "score" (see Policy).
func OrderBy(policy string) ImportOption {
	return func(req *ImportRequest) { req.Policy = policy }
}

// Conformant explicitly requests conformance-aware matching: offers of
// any conforming subtype of the requested service type match, graded
// and scored by hierarchy distance. This is the trader's default
// behaviour — the option exists so call sites can state the intent,
// and as the counterpart to MinGrade(match.GradeExact).
func Conformant() ImportOption {
	return MinGrade(match.GradeSubtype)
}

// MinGrade floors the semantic grade of returned matches:
// match.GradeExact restricts to offers of the literal requested type,
// match.GradeSubtype (the default) also admits conforming subtypes,
// and match.GradePartial additionally surfaces offers whose attributes
// satisfy only part of the constraint (scored below every full match).
func MinGrade(g match.Grade) ImportOption {
	return func(req *ImportRequest) { req.MinGrade = g }
}

// Limit bounds the number of returned offers; 0 means all.
func Limit(n int) ImportOption {
	return func(req *ImportRequest) { req.Max = n }
}

// Hops lets the import fan out across federation links up to h hops;
// 0 searches only the local trader.
func Hops(h int) ImportOption {
	return func(req *ImportRequest) { req.HopLimit = h }
}

// MaxPeers bounds how many partner traders each hop of a federated
// import consults; 0 (the default) consults every eligible link.
// Summary-positive peers — those whose gossiped offer summary covers
// the requested type — are preferred, and the overflow becomes hedge
// spares (see Hedge).
func MaxPeers(n int) ImportOption {
	return func(req *ImportRequest) { req.MaxPeers = n }
}

// Hedge queries one backup peer if the scattered peers have not all
// answered within d — latency insurance against a single slow link.
// The backup is the best spare left by MaxPeers, or a duplicate of a
// still-pending peer (results are deduplicated by offer ID). d <= 0
// (the default) disables hedging.
func Hedge(d time.Duration) ImportOption {
	return func(req *ImportRequest) { req.Hedge = d }
}
