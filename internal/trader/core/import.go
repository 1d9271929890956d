package core

import (
	"sort"
	"strconv"
	"time"

	"cosm/internal/match"
	"cosm/internal/ref"
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
	if c, ok := s.constraints.get(src); ok {
		s.compileOutcomes.With("hit").Inc()
		return c, nil
	}
	c, err := Compile(src)
	if err != nil {
		return nil, err
	}
	s.compileOutcomes.With("miss").Inc()
	s.constraints.add(src, c)
	return c, nil
}

// importCacheEntry is one cached import result plus everything needed
// to prove it still describes the store: the generation pair pins the
// set of matching types, the consulted bucket versions pin their
// contents, and expires bounds staleness by the caller's clock (and by
// the earliest lease expiry among the cached offers).
type importCacheEntry struct {
	expires   time.Time
	storeGen  uint64
	repoGen   uint64
	consulted []bucketVersion
	matches   []Match
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
	// Purely local, deterministically ordered imports can be answered
	// from the result cache: entries are invalidated by any store or
	// type-repo change that could alter the result, so the TTL only
	// bounds reuse, it never hides a change.
	cacheable := s.importCache != nil && !s.linear && len(remote) == 0 && q.policy.cacheable()
	var key string
	var storeGen, repoGen uint64
	if cacheable {
		key = q.typ + "\x1f" + q.constraint.src + "\x1f" + q.policy.src + "\x1f" +
			strconv.Itoa(q.max) + "\x1f" + strconv.Itoa(int(q.minGrade))
		if e, ok := s.importCache.get(key); ok && !now.After(e.expires) && s.validate(e) {
			s.importOutcomes.With("hit").Inc()
			return append([]Match(nil), e.matches...)
		}
		s.importOutcomes.With("miss").Inc()
		// Capture the generations before reading any snapshot: a write
		// racing with the match pass then fails the entry's validation.
		storeGen, repoGen = s.gens()
	}

	matches, consulted := s.localMatches(q, now)
	matches = append(matches, remote...)

	// Deduplicate by target reference: the same service exported at two
	// federated traders is still one service. First occurrence wins, so
	// a local (already grade-ordered-by-bucket) match shadows a remote
	// duplicate of the same service.
	seen := make(map[ref.ServiceRef]bool, len(matches))
	unique := matches[:0]
	for _, m := range matches {
		if seen[m.Ref] {
			continue
		}
		seen[m.Ref] = true
		unique = append(unique, m)
	}
	matches = unique

	if q.max > 0 && len(matches) > q.max && q.policy.kind != policyRandom && !s.linear {
		// Only the first Max are wanted: select them with a bounded heap
		// in the order the full sort below would give (the linear oracle
		// keeps the full sort, so the equivalence tests compare the two).
		matches = q.policy.top(matches, q.max)
	} else {
		s.rngMu.Lock()
		q.policy.apply(matches, s.rng)
		s.rngMu.Unlock()

		// Stable partition: healthy offers precede suspect ones, each
		// class keeping its policy order. A suspect provider may be fine
		// (the probe failure could be transient), but importers walking
		// the list front-to-back — in particular the bind failover path —
		// should reach live providers first.
		sort.SliceStable(matches, func(i, j int) bool {
			return !matches[i].Suspect && matches[j].Suspect
		})

		if q.max > 0 && len(matches) > q.max {
			matches = matches[:q.max]
		}
	}

	if cacheable {
		expires := now.Add(s.importTTL)
		for _, m := range matches {
			// A cached result must not outlive its shortest lease.
			if !m.Expires.IsZero() && m.Expires.Before(expires) {
				expires = m.Expires
			}
		}
		s.importCache.add(key, &importCacheEntry{
			expires:   expires,
			storeGen:  storeGen,
			repoGen:   repoGen,
			consulted: consulted,
			matches:   append([]Match(nil), matches...),
		})
	}
	return matches
}

// localMatches is the matcher over the store. Phase 1 resolves the
// requested type to the stored buckets of its graded conformant
// closure; phases 2 and 3 filter each bucket through the compiled
// constraint (index-narrowed when only full matches are wanted) and
// grade the survivors. A bucket whose type grade is below the floor is
// skipped outright unless the floor admits partial-attribute matches,
// which any conformant offer may still yield. The result is sorted by
// offer ID; the bucket versions consulted feed the import-result cache.
// Offers are shared immutable snapshots.
func (s *State) localMatches(q Query, now time.Time) ([]Match, []bucketVersion) {
	if s.linear {
		return s.linearMatches(q, now), nil
	}
	var matches []Match
	var consulted []bucketVersion
	for _, tm := range s.resolve(q.typ) {
		if q.minGrade > match.GradePartial && !tm.Grade.AtLeast(q.minGrade) {
			continue
		}
		snap, ok := s.snapshot(tm.Name)
		if !ok {
			continue // withdrawn since resolve; the gens catch it
		}
		consulted = append(consulted, bucketVersion{name: tm.Name, version: snap.version})
		matches = s.appendBucket(matches, snap, tm, q, now)
	}
	sort.Slice(matches, func(i, j int) bool { return matches[i].ID < matches[j].ID })
	return matches, consulted
}

// appendBucket is phase 2+3 for one conformant type bucket: candidate
// selection, constraint filtering and grading. When the grade floor
// excludes partial-attribute matches the candidate set is narrowed
// through the snapshot's attribute indexes (every index hint is a
// necessary condition of a *full* match); with a partial floor the
// whole bucket must be scanned, because an offer failing every hint may
// still satisfy some conjuncts.
func (s *State) appendBucket(out []Match, snap *typeSnapshot, tm match.TypeMatch, q Query, now time.Time) []Match {
	if q.minGrade > match.GradePartial {
		candidates, kind := snap.candidates(q.constraint)
		s.indexLookups.With(kind).Inc()
		for _, o := range candidates {
			if !o.Expired(now) && q.constraint.Match(o.Props) {
				out = append(out, Match{Offer: o, Grade: tm.Grade, Score: tm.Score})
			}
		}
		return out
	}
	s.indexLookups.With("scan").Inc()
	for _, o := range snap.offers {
		if !o.Expired(now) {
			out = appendGraded(out, o, tm, q.constraint)
		}
	}
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
	for _, tm := range gradedClosure(s.repo, q.typ) {
		grades[tm.Name] = tm
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
	sort.Slice(matches, func(i, j int) bool { return matches[i].ID < matches[j].ID })
	return matches
}
