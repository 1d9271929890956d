package core

import (
	"slices"
	"strings"
	"time"

	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/typemgr"
)

// Query is one import request in compiled form (see State.Prepare).
type Query struct {
	typ        string
	constraint *Constraint
	policy     Policy
	max        int
	minGrade   match.Grade // effective floor, never GradeNone
}

// EffectiveMinGrade maps a request's grade floor to the matcher's: the
// zero value (unset, and what pre-grading peers send) means the classic
// behaviour — full matches only, exact type or conforming subtype.
func EffectiveMinGrade(g match.Grade) match.Grade {
	if g == match.GradeNone {
		return match.GradeSubtype
	}
	return g
}

// Prepare compiles an import request: the constraint expression ("" =
// match all; served from the bounded LRU when possible), the selection
// policy ("" = "first"), the result bound (0 = all) and the grade
// floor. It fails on a malformed constraint or policy and touches no
// offer.
func (s *State) Prepare(reqType, constraint, policy string, max int, minGrade match.Grade) (Query, error) {
	c, err := s.compile(constraint)
	if err != nil {
		return Query{}, err
	}
	p, err := ParsePolicy(policy)
	if err != nil {
		return Query{}, err
	}
	return Query{typ: reqType, constraint: c, policy: p, max: max, minGrade: EffectiveMinGrade(minGrade)}, nil
}

// compile returns the compiled form of a constraint expression, served
// from the bounded LRU when possible.
func (s *State) compile(src string) (*Constraint, error) {
	if s.constraints == nil {
		return Compile(src)
	}
	if c, ok := s.constraints.Get(src); ok {
		s.compileOutcomes.With("hit").Inc()
		return c, nil
	}
	c, err := Compile(src)
	if err != nil {
		return nil, err
	}
	s.compileOutcomes.With("miss").Inc()
	s.constraints.Add(src, c)
	return c, nil
}

// Import matches a query against the store at time now (step 2/3 of
// Fig. 1) and merges in the matches partner traders returned for the
// same request, if any. Results are constraint-filtered, deduplicated
// by service reference, policy-ordered with healthy offers before
// suspect ones, and truncated to the query's bound.
//
// The returned offers are shared immutable snapshots; callers must not
// modify them.
func (s *State) Import(q Query, remote []Match, now time.Time) []Match {
	var buf [8]consultedBucket // most requests consult a few buckets
	bs := s.consult(q, buf[:0])
	if matches, ok := s.walkRanked(bs, q, remote, now); ok {
		return matches
	}
	return s.order(q, append(s.localMatches(bs, q, now), remote...))
}

// order deduplicates matches by service reference and puts them in the
// query's order, truncated to its bound.
func (s *State) order(q Query, matches []Match) []Match {
	// Deduplicate by target reference: the same service exported at two
	// federated traders is still one service. First occurrence wins, so
	// a local (ID-ordered) match shadows a remote duplicate of the same
	// service, and of two local offers of one service the lower ID wins.
	seen := make(map[ref.ServiceRef]struct{}, len(matches))
	unique := matches[:0]
	for _, m := range matches {
		if _, dup := seen[m.Ref]; !dup {
			seen[m.Ref] = struct{}{}
			unique = append(unique, m)
		}
	}
	matches = unique

	if q.max > 0 && len(matches) > q.max && q.policy.kind != policyRandom && !s.linear {
		// Only the first Max are wanted: select them with a bounded heap
		// in the order the full sort below would give (the linear oracle
		// keeps the full sort, so the equivalence tests compare the two).
		return q.policy.top(matches, q.max)
	}
	s.rngMu.Lock()
	q.policy.apply(matches, s.rng)
	s.rngMu.Unlock()

	// Stable partition: healthy offers precede suspect ones, each class
	// keeping its policy order. A suspect provider may be fine (the
	// probe failure could be transient), but importers walking the list
	// front-to-back — in particular the bind failover path — should
	// reach live providers first.
	slices.SortStableFunc(matches, func(a, b Match) int {
		switch {
		case a.Suspect == b.Suspect:
			return 0
		case b.Suspect:
			return -1
		}
		return 1
	})

	if q.max > 0 && len(matches) > q.max {
		matches = matches[:q.max]
	}
	return matches
}

// consultedBucket is one stored type bucket an import reads: its
// snapshot, and the type grade and score its full matches inherit.
type consultedBucket struct {
	snap *typeSnapshot
	tm   match.TypeMatch
}

// consult is phase 1 of the matcher: it grades each member of the
// requested type's conformant closure, which the type repository
// caches, and appends the stored ones to bs, each with its snapshot
// pinned under one read lock. A member whose type grade is below the
// floor is skipped outright unless the floor admits partial-attribute
// matches, which any conformant offer may still yield. The linear
// oracle consults no bucket.
func (s *State) consult(q Query, bs []consultedBucket) []consultedBucket {
	if s.linear {
		return nil
	}
	cl := closure(s.repo, q.typ)
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, c := range cl {
		b := s.types[c.Name]
		if b == nil {
			continue
		}
		tm := match.GradeType(c)
		if q.minGrade > match.GradePartial && !tm.Grade.AtLeast(q.minGrade) {
			continue
		}
		bs = append(bs, consultedBucket{snap: s.pin(c.Name, b), tm: tm})
	}
	return bs
}

// closure is the conformant closure of reqType. A type the repository
// does not know (or whose hierarchy is corrupt) is conformed to by
// nothing: only offers stored under the literal name match it, exactly.
func closure(repo *typemgr.Repo, reqType string) []typemgr.ConformantType {
	cl, err := repo.ConformingTypes(reqType)
	if err != nil {
		return []typemgr.ConformantType{{Name: reqType}}
	}
	return cl
}

// localMatches is phases 2 and 3 of the matcher over the consulted
// buckets: each is filtered through the compiled constraint
// (index-narrowed when only full matches are wanted) and its survivors
// graded. The result is sorted by offer ID. Offers are shared immutable
// snapshots.
func (s *State) localMatches(bs []consultedBucket, q Query, now time.Time) []Match {
	if s.linear {
		return s.linearMatches(q, now)
	}
	var matches []Match
	for _, b := range bs {
		matches = s.appendBucket(matches, b.snap, b.tm, q, now)
	}
	slices.SortFunc(matches, byID)
	return matches
}

// walkCursor walks the entries [lo, hi) of one consulted bucket's
// numeric index in policy order: ascending for min:, and for max:
// descending by value with each run of equal values [g, e) in ascending
// ID order — ties come out in ID order either way, as Policy.top breaks
// them.
type walkCursor struct {
	tm     match.TypeMatch
	snap   *typeSnapshot // the bucket's; idx is its index of the ranked property
	idx    runs[numEntry]
	desc   bool // max: values walk downward
	lo, hi int
	g, e   int
}

// head returns the cursor's next entry, false when it has none left.
func (c *walkCursor) head() (numEntry, bool) {
	if !c.desc {
		if c.lo == c.hi {
			return numEntry{}, false
		}
		return c.idx.At(c.lo), true
	}
	if c.g == c.e {
		if c.lo == c.hi {
			return numEntry{}, false
		}
		v := c.idx.At(c.hi - 1).val
		c.g = max(c.lo, c.idx.search(func(e numEntry) bool { return e.val >= v }))
		c.e, c.hi = c.hi, c.g
	}
	return c.idx.At(c.g), true
}

// pop consumes the cursor's head.
func (c *walkCursor) pop() {
	if c.desc {
		c.g++
	} else {
		c.lo++
	}
}

// walkRanked answers a bounded min:/max: import of full matches without
// remote matches by a k-way merge, in policy order, over each consulted
// bucket's numeric index of the ranked property, restricted to the
// constraint's numeric hints on it (every match lies there, so none is
// unranked). It stops at Max healthy results, so it costs O(Max) rather
// than O(matches) when the best offers match. A walked offer is kept
// when it is unexpired, matches, and no lower-ID sibling in a consulted
// bucket does too — exactly the offer order's first-occurrence dedup
// keeps; suspects wait in a side list capped at Max, which gives
// order's healthy-before-suspect result. It returns false — it
// declines — when the query is not of that shape, the constraint has
// no numeric hint on the ranked property, or some bucket's walk range
// is longer than the candidate list appendBucket would evaluate there.
func (s *State) walkRanked(bs []consultedBucket, q Query, remote []Match, now time.Time) ([]Match, bool) {
	p := q.policy
	if s.linear || len(remote) > 0 || q.max <= 0 || q.minGrade <= match.GradePartial ||
		p.kind != policyMin && p.kind != policyMax {
		return nil, false
	}
	ranks := func(h indexHint) bool { return h.prop == p.prop && h.val.kind == cvNum }
	if !slices.ContainsFunc(q.constraint.hints(), ranks) {
		return nil, false
	}
	desc := p.kind == policyMax
	var buf [8]walkCursor
	cs, total := buf[:0], 0
	for _, b := range bs {
		ranked := b.snap.prop(p.prop)
		if ranked == nil || ranked.num.Len() == 0 {
			continue // no ranked offer: nothing there can match
		}
		idx := ranked.num
		// Each hint's span once: the ranked ones bound the walk, and the
		// shortest of all is the candidate list appendBucket would take.
		// A ranked hint's span is a range of idx, as hintSpan would find.
		lo, hi, least := 0, idx.Len(), b.snap.offers.Len()
		for _, h := range q.constraint.hints() {
			if ranks(h) {
				l, r := bounds(idx, h.op, h.val.num)
				lo, hi, least = max(lo, l), min(hi, r), min(least, r-l)
			} else if sp, _, ok := b.snap.hintSpan(h); ok {
				least = min(least, sp.Len())
			}
		}
		if hi = max(lo, hi); hi-lo > least {
			return nil, false
		}
		cs = append(cs, walkCursor{tm: b.tm, snap: b.snap, idx: idx, desc: desc, lo: lo, hi: hi})
		total += hi - lo
	}
	s.indexLookups.With("ordered").Add(uint64(len(bs)))

	out := make([]Match, 0, min(q.max, total))
	var suspects []Match
	for len(out) < q.max {
		best := -1
		var be numEntry
		for i := range cs {
			e, ok := cs[i].head()
			if ok && (best < 0 || walksBefore(e, be, desc)) {
				best, be = i, e
			}
		}
		if best < 0 {
			break
		}
		c := &cs[best]
		c.pop()
		o := be.o
		if o.Expired(now) || !q.constraint.Match(o.Props) {
			continue
		}
		if shadowedBy(bs, c.snap, o, q.constraint, now) != nil {
			continue
		}
		m := Match{Offer: o, Grade: c.tm.Grade, Score: c.tm.Score}
		switch {
		case !o.Suspect:
			out = append(out, m)
		case len(suspects) < q.max:
			suspects = append(suspects, m)
		}
	}
	return append(out, suspects[:min(len(suspects), q.max-len(out))]...), true
}

// walksBefore reports whether entry a precedes entry b in the walk: by
// value in policy order, then by ID.
func walksBefore(a, b numEntry, desc bool) bool {
	if a.val != b.val {
		return a.val < b.val != desc
	}
	return a.o.ID < b.o.ID
}

// shadowedBy returns a sibling of o — a stored offer of the same
// service with a lower ID — that is unexpired and matches in some
// consulted bucket, or nil. Such a sibling, not o, is the one Import
// keeps. own is the snapshot o came from: when it counts no siblings,
// o has none there, and only the other buckets are searched.
func shadowedBy(bs []consultedBucket, own *typeSnapshot, o *Offer, c *Constraint, now time.Time) *Offer {
	var sib *Offer
	for i := range bs {
		if bs[i].snap == own && own.sibs == 0 {
			continue
		}
		offers := bs[i].snap.offers
		j := offers.search(func(e *Offer) bool { return compareRef(e.Ref, o.Ref) >= 0 })
		offers.each(j, offers.Len(), func(e *Offer) bool {
			if e.Ref != o.Ref || e.ID >= o.ID {
				return false
			}
			if !e.Expired(now) && c.Match(e.Props) {
				sib = e
			}
			return sib == nil
		})
		if sib != nil {
			return sib
		}
	}
	return nil
}

// appendBucket is phase 2+3 for one conformant type bucket: candidate
// selection, constraint filtering and grading. When the grade floor
// excludes partial-attribute matches the candidate set is narrowed
// through the snapshot's attribute indexes (every index hint is a
// necessary condition of a *full* match), and out grows once to hold
// every candidate; with a partial floor the whole bucket must be
// scanned, because an offer failing every hint may still satisfy some
// conjuncts.
func (s *State) appendBucket(out []Match, snap *typeSnapshot, tm match.TypeMatch, q Query, now time.Time) []Match {
	if q.minGrade > match.GradePartial {
		candidates, kind := snap.candidates(q.constraint)
		s.indexLookups.With(kind).Inc()
		out = slices.Grow(out, candidates.Len())
		candidates.each(func(o *Offer) bool {
			if !o.Expired(now) && q.constraint.Match(o.Props) {
				out = append(out, Match{Offer: o, Grade: tm.Grade, Score: tm.Score})
			}
			return true
		})
		return out
	}
	s.indexLookups.With("scan").Inc()
	snap.offers.each(0, snap.offers.Len(), func(o *Offer) bool {
		if !o.Expired(now) {
			out = appendGraded(out, o, tm, q.constraint)
		}
		return true
	})
	return out
}

// appendGraded grades one type-conformant offer against the constraint
// — full (inheriting the bucket's type grade) or partial-attribute —
// and appends it; offers satisfying no conjunct are dropped.
func appendGraded(out []Match, o *Offer, tm match.TypeMatch, constraint *Constraint) []Match {
	sat, total := constraint.satisfied(o.Props)
	switch {
	case sat == total:
		out = append(out, Match{Offer: o, Grade: tm.Grade, Score: tm.Score})
	case sat > 0:
		out = append(out, Match{Offer: o, Grade: match.GradePartial, Score: match.PartialScore(tm.Score, sat, total)})
	}
	return out
}

// linearMatches is the Options.Linear oracle the index-equivalence
// property tests compare against: no stored-bucket intersection, no
// snapshots, no index narrowing — a full-store scan with a per-offer
// closure lookup, implementing exactly the graded semantics of
// localMatches.
func (s *State) linearMatches(q Query, now time.Time) []Match {
	s.indexLookups.With("linear").Inc()
	grades := map[string]match.TypeMatch{}
	for _, c := range closure(s.repo, q.typ) {
		grades[c.Name] = match.GradeType(c)
	}
	var matches []Match
	for _, o := range s.All() {
		tm, ok := grades[o.Type]
		if !ok || o.Expired(now) {
			continue
		}
		if q.minGrade > match.GradePartial {
			if tm.Grade.AtLeast(q.minGrade) && q.constraint.Match(o.Props) {
				matches = append(matches, Match{Offer: o, Grade: tm.Grade, Score: tm.Score})
			}
			continue
		}
		matches = appendGraded(matches, o, tm, q.constraint)
	}
	slices.SortFunc(matches, byID)
	return matches
}

// byID orders matches by offer ID.
func byID(a, b Match) int { return strings.Compare(a.ID, b.ID) }
