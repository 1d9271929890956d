package core

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"slices"
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
// Offers lacking the ranked property (or holding NaN) sort last under
// min/max.
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

// apply orders graded matches in place according to the policy. rng
// drives the "random" policy and must be non-nil for it.
func (p Policy) apply(ms []Match, rng *rand.Rand) {
	if p.kind == policyRandom {
		rng.Shuffle(len(ms), func(i, j int) {
			ms[i], ms[j] = ms[j], ms[i]
		})
		return
	}
	slices.SortStableFunc(ms, func(a, b Match) int { return p.compare(&a, &b) })
}

// compare orders a against b by the policy's key alone: negative when a
// ranks first, positive when b does, and zero for matches it does not
// tell apart, which keep their input order. Meaningless for "random".
func (p Policy) compare(a, b *Match) int {
	switch p.kind {
	case policyMin, policyMax:
		va, oka := number(a.Props, p.prop)
		vb, okb := number(b.Props, p.prop)
		switch {
		case oka && okb:
			if p.kind == policyMax {
				va, vb = vb, va
			}
			return cmp.Compare(va, vb)
		case oka != okb: // ranked offers before unranked ones
			if oka {
				return -1
			}
			return 1
		}
		return 0
	case policyScore:
		switch {
		case a.Score > b.Score:
			return -1
		case a.Score < b.Score:
			return 1
		case a.Grade != b.Grade:
			return cmp.Compare(b.Grade, a.Grade)
		}
	}
	return strings.Compare(a.ID, b.ID)
}

// top returns the k best of ms (0 < k < len(ms)), best first, in
// exactly the order apply followed by Import's healthy-before-suspect
// partition gives them: healthy before suspect, then the policy key,
// then position in ms. It keeps a bounded heap of k entries, so its
// scratch space is O(k) rather than O(len(ms)), and writes the result
// over ms[:k]. Not for "random".
func (p Policy) top(ms []Match, k int) []Match {
	type entry struct {
		Match
		pos int
	}
	// worse reports whether a ranks after b; the heap keeps its worst
	// entry at the root, to be displaced by any better match.
	worse := func(a, b *entry) bool {
		if a.Suspect != b.Suspect {
			return a.Suspect
		}
		if c := p.compare(&a.Match, &b.Match); c != 0 {
			return c > 0
		}
		return a.pos > b.pos
	}
	h := make([]entry, 0, k)
	down := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(h) {
				return
			}
			if c+1 < len(h) && worse(&h[c+1], &h[c]) {
				c++
			}
			if !worse(&h[c], &h[i]) {
				return
			}
			h[i], h[c] = h[c], h[i]
			i = c
		}
	}
	for i := range ms {
		e := entry{ms[i], i}
		if len(h) < k {
			h = append(h, e)
			for j := len(h) - 1; j > 0 && worse(&h[j], &h[(j-1)/2]); j = (j - 1) / 2 {
				h[j], h[(j-1)/2] = h[(j-1)/2], h[j]
			}
		} else if worse(&h[0], &e) {
			h[0] = e
			down(0)
		}
	}
	// Pop worst-first into the back of the result.
	for n := k - 1; n >= 0; n-- {
		ms[n] = h[0].Match
		h[0] = h[n]
		h = h[:n]
		down(0)
	}
	return ms[:k]
}

// number returns props[name] as a number — as the min/max policies rank
// it and a snapshot's numeric index holds it. A missing, non-numeric or
// NaN value is none: it ranks last, and satisfies no comparison anyway.
func number(props map[string]sidl.Lit, name string) (float64, bool) {
	l, ok := props[name]
	if !ok {
		return 0, false
	}
	switch l.Kind {
	case sidl.LitInt:
		return float64(l.Int), true
	case sidl.LitFloat:
		return l.Float, !math.IsNaN(l.Float)
	}
	return 0, false
}
