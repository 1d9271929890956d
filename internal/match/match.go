// Package match is the trader's semantic matchmaking engine: it turns
// the boolean "does this offer satisfy the import?" of classic trading
// into a *graded* answer, the maturation story of the paper's section
// 3.1 made queryable. The design follows the staged matchmakers in the
// literature (type conformance → attribute filtering → scoring): phase
// 1 resolves the requested service type to its conformant-subtype
// closure (typemgr's generation-cached hierarchy index), phase 2 runs
// the compiled attribute-constraint filter over each candidate bucket,
// and phase 3 scores every surviving offer into a graded result the
// preference policy can order by.
//
// This package holds the vocabulary of that answer — the grade lattice,
// the scoring model and the grading of a conformant closure; the loop
// that walks offers lives with the offer store, in the trader.
package match

import (
	"fmt"

	"cosm/internal/typemgr"
)

// Grade classifies how well an offer satisfies an import request. The
// lattice orders weaker matches below stronger ones, so "at least
// subtype" style floors are simple comparisons.
type Grade uint8

const (
	// GradeNone marks an ungraded result: an offer from a peer that
	// predates grading, or one that does not match at all. Zero value
	// on the wire means "absent".
	GradeNone Grade = iota
	// GradePartial is a partial-attribute match: the offer's type
	// conforms to the request but its properties satisfy only some of
	// the constraint's top-level conjuncts.
	GradePartial
	// GradeSubtype is a full match by a conforming subtype (declared
	// or structural) of the requested type.
	GradeSubtype
	// GradeExact is a full match on the requested type itself.
	GradeExact
)

// String renders the grade the way the wire, metrics, and cosmcli show
// it. GradeNone renders empty: on the wire that reads as "absent",
// which is exactly what tolerant decode needs for old peers.
func (g Grade) String() string {
	switch g {
	case GradePartial:
		return "partial-attribute"
	case GradeSubtype:
		return "subtype"
	case GradeExact:
		return "exact"
	}
	return ""
}

// ParseGrade is the inverse of String, with "partial" and "none"
// accepted as spoken-form aliases.
func ParseGrade(s string) (Grade, error) {
	switch s {
	case "", "none":
		return GradeNone, nil
	case "partial", "partial-attribute":
		return GradePartial, nil
	case "subtype":
		return GradeSubtype, nil
	case "exact":
		return GradeExact, nil
	}
	return GradeNone, fmt.Errorf("match: unknown grade %q", s)
}

// AtLeast reports whether g meets the floor min.
func (g Grade) AtLeast(min Grade) bool { return g >= min }

// Scoring model. The final score of a full match is its type score; a
// partial-attribute match scales the type score by the satisfied
// fraction of constraint conjuncts, weighted so that *any* full match
// (≥ ScoreStructural) outranks *any* partial one (< PartialWeight).
const (
	// ScoreExact is the type score of an offer of the requested type.
	ScoreExact = 1.0
	// ScoreSubtypeBase/Step: a declared subtype at depth d scores
	// Base − Step×(d−1), so nearer refinements rank higher.
	ScoreSubtypeBase = 0.9
	ScoreSubtypeStep = 0.05
	// ScoreSubtypeFloor bounds arbitrarily deep declared chains.
	ScoreSubtypeFloor = 0.55
	// ScoreStructural is the type score of a structural-only
	// conformer: substitutable, but never standardised as a
	// refinement, so it ranks below every declared subtype.
	ScoreStructural = 0.5
	// PartialWeight caps partial-attribute scores below every full
	// match's floor.
	PartialWeight = 0.4
)

// TypeScore maps a position in the conformance hierarchy to the type
// component of the score.
func TypeScore(depth int, structural bool) float64 {
	if structural {
		return ScoreStructural
	}
	if depth <= 0 {
		return ScoreExact
	}
	s := ScoreSubtypeBase - ScoreSubtypeStep*float64(depth-1)
	if s < ScoreSubtypeFloor {
		return ScoreSubtypeFloor
	}
	return s
}

// PartialScore scores a partial-attribute match: the type score scaled
// by the satisfied fraction of the constraint's top-level conjuncts.
func PartialScore(typeScore float64, satisfied, total int) float64 {
	if total <= 0 || satisfied <= 0 {
		return 0
	}
	return typeScore * PartialWeight * float64(satisfied) / float64(total)
}

// TypeMatch is a phase-1 result: one service type from the requested
// type's conformant closure, pre-graded. Offers of this type inherit
// its Grade/Score when their attributes fully satisfy the constraint.
type TypeMatch struct {
	Name  string
	Grade Grade
	Score float64
}

// GradeClosure converts a typemgr conformant closure into graded type
// matches, preserving order (exact first, then by ascending declared
// depth, then structural conformers).
func GradeClosure(cl []typemgr.ConformantType) []TypeMatch {
	out := make([]TypeMatch, len(cl))
	for i, c := range cl {
		tm := TypeMatch{Name: c.Name, Score: TypeScore(c.Depth, c.Structural)}
		if c.Depth == 0 && !c.Structural {
			tm.Grade = GradeExact
		} else {
			tm.Grade = GradeSubtype
		}
		out[i] = tm
	}
	return out
}

// GradeRemote grades an offer that arrived ungraded from a peer that
// predates grading, using the origin trader's own view of the
// hierarchy: exact if the types agree literally, the closure's grade if
// the offer's type is in it, and a conservative structural-score
// subtype grade when the origin does not know the type at all (the old
// peer already vouched that it matches).
func GradeRemote(reqType, offerType string, cl []TypeMatch) (Grade, float64) {
	if offerType == reqType {
		return GradeExact, ScoreExact
	}
	for _, tm := range cl {
		if tm.Name == offerType {
			return tm.Grade, tm.Score
		}
	}
	return GradeSubtype, ScoreStructural
}
