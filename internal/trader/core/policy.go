package core

import (
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"strings"

	"cosm/internal/sidl"
)

// ErrPolicy reports an unknown or malformed selection policy.
var ErrPolicy = errors.New("trader: bad selection policy")

// Policy orders a matching offer set so that "best possible" offers
// (section 2.1) come first. Supported forms:
//
//	"first"       — stable order (by offer id); the default
//	"random"      — a uniformly random permutation (load spreading)
//	"min:<Prop>"  — ascending by a numeric property, e.g. "min:ChargePerDay"
//	"max:<Prop>"  — descending by a numeric property
//	"score"       — descending by semantic match score (exact type first,
//	                then nearer subtypes, then partial-attribute matches),
//	                grade and offer id breaking ties
//
// Offers lacking the ranked property sort last under min/max.
type Policy struct {
	src  string
	kind policyKind
	prop string
}

type policyKind uint8

const (
	policyFirst policyKind = iota + 1
	policyRandom
	policyMin
	policyMax
	policyScore
)

// ParsePolicy parses a policy string; "" means "first".
func ParsePolicy(src string) (Policy, error) {
	s := strings.TrimSpace(src)
	switch {
	case s == "" || s == "first":
		return Policy{src: s, kind: policyFirst}, nil
	case s == "random":
		return Policy{src: s, kind: policyRandom}, nil
	case s == "score":
		return Policy{src: s, kind: policyScore}, nil
	case strings.HasPrefix(s, "min:"):
		return parseRankPolicy(s, policyMin)
	case strings.HasPrefix(s, "max:"):
		return parseRankPolicy(s, policyMax)
	default:
		return Policy{}, fmt.Errorf("%w: %q", ErrPolicy, src)
	}
}

func parseRankPolicy(s string, kind policyKind) (Policy, error) {
	prop := strings.TrimSpace(s[4:])
	if prop == "" {
		return Policy{}, fmt.Errorf("%w: %q lacks a property name", ErrPolicy, s)
	}
	return Policy{src: s, kind: kind, prop: prop}, nil
}

// String returns the policy source text.
func (p Policy) String() string { return p.src }

// cacheable reports whether the policy orders deterministically, so an
// import result under it may be served from the result cache. "random"
// must re-shuffle on every call.
func (p Policy) cacheable() bool { return p.kind != policyRandom }

// apply orders graded matches in place according to the policy. rng
// drives the "random" policy and must be non-nil for it.
func (p Policy) apply(ms []Match, rng *rand.Rand) {
	switch p.kind {
	case policyRandom:
		rng.Shuffle(len(ms), func(i, j int) {
			ms[i], ms[j] = ms[j], ms[i]
		})
	case policyMin, policyMax:
		sort.SliceStable(ms, func(i, j int) bool {
			vi, oki := numericProp(ms[i].Offer, p.prop)
			vj, okj := numericProp(ms[j].Offer, p.prop)
			switch {
			case oki && okj:
				if p.kind == policyMin {
					return vi < vj
				}
				return vi > vj
			case oki:
				return true // ranked offers before unranked ones
			default:
				return false
			}
		})
	case policyScore:
		sort.SliceStable(ms, func(i, j int) bool {
			if ms[i].Score != ms[j].Score {
				return ms[i].Score > ms[j].Score
			}
			if ms[i].Grade != ms[j].Grade {
				return ms[i].Grade > ms[j].Grade
			}
			return ms[i].ID < ms[j].ID
		})
	default:
		sort.SliceStable(ms, func(i, j int) bool { return ms[i].ID < ms[j].ID })
	}
}

func numericProp(o *Offer, prop string) (float64, bool) {
	l, ok := o.Props[prop]
	if !ok {
		return 0, false
	}
	switch l.Kind {
	case sidl.LitInt:
		return float64(l.Int), true
	case sidl.LitFloat:
		return l.Float, true
	}
	return 0, false
}
