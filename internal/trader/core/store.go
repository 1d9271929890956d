package core

import (
	"maps"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/match"
	"cosm/internal/ref"
	"cosm/internal/sidl"
	"cosm/internal/typemgr"
)

// storeShards is the number of offer-store shards. Shard choice hashes
// the service-type name, so one hot type contends only with types that
// share its shard and exports of distinct types proceed in parallel.
const storeShards = 16

type storeShard struct {
	mu    sync.RWMutex
	types map[string]*typeBucket
	byID  map[string]*Offer
}

// typeBucket holds one stored service type's offers plus its matching
// snapshot. snap is nil until the first read builds it, and from then on
// every write derives the next one (see write).
type typeBucket struct {
	name   string
	offers map[string]*Offer
	snap   atomic.Pointer[typeSnapshot]
}

// write records a mutation of b that replaced old by fresh — the same
// offer ID; old is nil for an insert, fresh for a removal. A bucket some
// reader has snapshotted gets the next snapshot derived from the current
// one; a bucket nobody has read yet (recovery, a fresh follower) builds
// nothing. The caller holds the shard's write lock.
func (b *typeBucket) write(old, fresh *Offer) {
	if snap := b.snap.Load(); snap != nil {
		b.snap.Store(snap.derive(old, fresh))
	}
}

// resolution pins the graded stored types matching one request type at
// a (store generation, repo generation) pair.
type resolution struct {
	storeGen uint64
	repoGen  uint64
	types    []match.TypeMatch
}

// shardFor hashes a service-type name to its shard (FNV-1a).
func (s *State) shardFor(serviceType string) *storeShard {
	var h uint32 = 2166136261
	for i := 0; i < len(serviceType); i++ {
		h ^= uint32(serviceType[i])
		h *= 16777619
	}
	return &s.shards[h%storeShards]
}

// Clear empties the store — a follower installing a leader snapshot
// replaces its contents wholesale. Bumping the type-set generation
// invalidates cached resolutions implicitly.
func (s *State) Clear() {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		sh.types = map[string]*typeBucket{}
		sh.byID = map[string]*Offer{}
		sh.mu.Unlock()
	}
	s.typeSetGen.Add(1)
}

// insert stores an immutable offer. Re-inserting a stored ID — a
// replayed export — replaces the stored offer, never duplicates it (an
// ID names one offer of one type for life).
func (s *State) insert(o *Offer) {
	sh := s.shardFor(o.Type)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	b := sh.types[o.Type]
	if b == nil {
		b = &typeBucket{name: o.Type, offers: map[string]*Offer{}}
		sh.types[o.Type] = b
		s.typeSetGen.Add(1)
	}
	old := b.offers[o.ID]
	b.offers[o.ID] = o
	sh.byID[o.ID] = o
	b.write(old, o)
}

// find returns the stored offer for id (shared, immutable) and the
// shard holding it, or nil, nil. An offer never changes shard — its
// type is fixed for life — so a writer that found one re-checks only
// its presence after taking the shard's write lock.
func (s *State) find(id string) (*storeShard, *Offer) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		o, ok := sh.byID[id]
		sh.mu.RUnlock()
		if ok {
			return sh, o
		}
	}
	return nil, nil
}

// remove withdraws an offer by ID and returns it.
func (s *State) remove(id string) (*Offer, bool) {
	sh, _ := s.find(id)
	if sh == nil {
		return nil, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.byID[id]
	if !ok {
		return nil, false
	}
	delete(sh.byID, id)
	s.removeFromBucketLocked(sh, o)
	return o, true
}

// removeFromBucketLocked detaches o from its type bucket; the caller
// holds the shard's write lock and has already removed it from byID.
func (s *State) removeFromBucketLocked(sh *storeShard, o *Offer) {
	b := sh.types[o.Type]
	if b == nil {
		return
	}
	delete(b.offers, o.ID)
	if len(b.offers) == 0 {
		delete(sh.types, o.Type)
		s.typeSetGen.Add(1)
		return
	}
	b.write(o, nil)
}

// update swaps the stored offer for id with a copy edited by set (copy-
// on-write: stored offers are immutable, so set only ever sees the
// fresh copy) and returns that copy.
func (s *State) update(id string, set func(fresh *Offer)) (*Offer, bool) {
	sh, _ := s.find(id)
	if sh == nil {
		return nil, false
	}
	sh.mu.Lock()
	defer sh.mu.Unlock()
	o, ok := sh.byID[id]
	if !ok {
		return nil, false
	}
	fresh := *o
	set(&fresh)
	sh.byID[id] = &fresh
	if b := sh.types[o.Type]; b != nil {
		b.offers[id] = &fresh
		b.write(o, &fresh)
	}
	return &fresh, true
}

// purgeExpired removes and returns the offers whose lease ran out at
// time now.
func (s *State) purgeExpired(now time.Time) []*Offer {
	var purged []*Offer
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.Lock()
		for id, o := range sh.byID {
			if !o.Expired(now) {
				continue
			}
			delete(sh.byID, id)
			s.removeFromBucketLocked(sh, o)
			purged = append(purged, o)
		}
		sh.mu.Unlock()
	}
	return purged
}

// each calls fn for every stored offer, expired ones included, shard
// by shard under the shard's read lock.
func (s *State) each(fn func(*Offer)) {
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for _, o := range sh.byID {
			fn(o)
		}
		sh.mu.RUnlock()
	}
}

// resolve is phase 1 of the matcher (see localMatches): the graded
// stored type buckets whose offers satisfy requests for reqType — the
// type itself (exact) plus every stored type in its conformant closure
// (subtype, scored by hierarchy distance). The closure comes from the
// typemgr hierarchy index, so this never walks conformance per stored
// type; the intersection with the stored bucket set is cached and
// revalidated against the store and repo generations, so steady-state
// imports do no hierarchy work at all.
func (s *State) resolve(reqType string) []match.TypeMatch {
	storeGen, repoGen := s.typeSetGen.Load(), s.repo.Gen()
	if r, ok := s.resolutions.get(reqType); ok && r.storeGen == storeGen && r.repoGen == repoGen {
		return r.types
	}

	stored := map[string]bool{}
	for i := range s.shards {
		sh := &s.shards[i]
		sh.mu.RLock()
		for name := range sh.types {
			stored[name] = true
		}
		sh.mu.RUnlock()
	}

	var types []match.TypeMatch
	for _, tm := range gradedClosure(s.repo, reqType) {
		if stored[tm.Name] {
			types = append(types, tm)
		}
	}
	s.resolutions.add(reqType, &resolution{storeGen: storeGen, repoGen: repoGen, types: types})
	return types
}

// snapshot returns the current matching snapshot for a stored type,
// building it under the shard's read lock on the type's first read.
func (s *State) snapshot(serviceType string) (*typeSnapshot, bool) {
	sh := s.shardFor(serviceType)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	b := sh.types[serviceType]
	if b == nil {
		return nil, false
	}
	if snap := b.snap.Load(); snap != nil {
		return snap, true
	}
	// Build while holding the read lock: writers are excluded, so the
	// built snapshot is consistent with b.offers, and a writer that runs
	// after we release derives its successor from it. Concurrent
	// readers may build duplicates; they are identical, and the
	// duplicate work is bounded by one build per reader already past the
	// nil check.
	snap := buildSnapshot(b)
	b.snap.Store(snap)
	s.rebuilds.Inc()
	return snap, true
}

// gradedClosure is the graded conformant closure of reqType. A type
// the repository does not know (or whose hierarchy is corrupt) is
// conformed to by nothing: only offers stored under the literal name
// match it, exactly.
func gradedClosure(repo *typemgr.Repo, reqType string) []match.TypeMatch {
	cl, err := repo.ConformingTypes(reqType)
	if err != nil {
		return []match.TypeMatch{{Name: reqType, Grade: match.GradeExact, Score: match.ScoreExact}}
	}
	return match.GradeClosure(cl)
}

// ---------------------------------------------------------------------
// Type snapshots and attribute indexes
// ---------------------------------------------------------------------

// typeSnapshot is an immutable view of one stored type's offers with
// attribute indexes over the characterising properties: equality
// posting lists for every non-numeric (property, value) pair and
// value-sorted lists for numeric properties, which answer numeric
// equality too. Imports narrow their candidate set through the indexes
// (see Constraint.hints) and never lock the store. The first read of a
// type builds its snapshot; every later write derives the next one.
//
// Every list is runs, so a derived snapshot shares all but the one run
// per list its write touched. The offer list and every posting list are
// in (Ref, ID) order, so the stored offers of one service — siblings,
// which an import deduplicates — sit together in ID order and are found
// by one binary search (see shadowedBy).
type typeSnapshot struct {
	offers runs[*Offer] // in (Ref, ID) order
	// props counts the offers carrying each property name; an equality
	// hint whose right-hand side is syntactically an identifier is only
	// index-resolvable when that identifier names no stored property
	// (see indexHint.rhsProp).
	props map[string]int
	// eq maps a (property, value) pair to the (Ref, ID)-ordered posting
	// list of offers carrying exactly that value.
	eq map[eqK]runs[*Offer]
	// num maps a property name to its numerically valued offers in
	// (value, ID) order — equal values, -0 and +0 among them, in ID
	// order, the way Policy.top breaks ties — so a walk in policy order
	// (see walkRanked) needs no sort.
	num map[string]runs[numEntry]
}

// numEntry is one offer of a numeric index and its value there.
type numEntry struct {
	val float64
	o   *Offer
}

// eqK is the key of an equality posting list: a property and one
// non-numeric value of it. The kind is part of the key, so a string
// never collides with an enum symbol of the same spelling (mixed kinds
// never compare equal at eval time either).
type eqK struct {
	prop string
	kind cvalKind
	str  string
	b    bool
}

func buildSnapshot(b *typeBucket) *typeSnapshot {
	offers := make([]*Offer, 0, len(b.offers))
	for _, o := range b.offers {
		offers = append(offers, o)
	}
	slices.SortFunc(offers, byRefID)
	snap := &typeSnapshot{
		offers: runsOf(offers),
		props:  map[string]int{},
		eq:     map[eqK]runs[*Offer]{},
		num:    map[string]runs[numEntry]{},
	}
	eq := map[eqK][]*Offer{}
	num := map[string][]numEntry{}
	for _, o := range offers { // (Ref, ID) order keeps posting lists sorted
		for name, lit := range o.Props {
			snap.props[name]++
			if k, ok := eqKey(name, litVal(lit)); ok {
				eq[k] = append(eq[k], o)
			} else if x, ok := number(o.Props, name); ok {
				num[name] = append(num[name], numEntry{x, o})
			}
		}
	}
	for k, list := range eq {
		snap.eq[k] = runsOf(list)
	}
	for name, list := range num {
		slices.SortFunc(list, byValID)
		snap.num[name] = runsOf(list)
	}
	return snap
}

// derive returns the snapshot that replacing old by fresh (see
// typeBucket.write) makes of snap. The offer list
// and each posting list and numeric index holding old or fresh get one
// sorted delete and/or insert, which copies their spine and the run it
// touches; every other run, list and index is shared with snap, which
// stays valid for the readers holding it.
func (snap *typeSnapshot) derive(old, fresh *Offer) *typeSnapshot {
	var id string
	var oldProps, freshProps map[string]sidl.Lit
	if old != nil {
		id, oldProps = old.ID, old.Props
	}
	if fresh != nil {
		id, freshProps = fresh.ID, fresh.Props
	}
	next := &typeSnapshot{
		offers: spliceOffers(snap.offers, old, fresh),
		props:  maps.Clone(snap.props),
		eq:     maps.Clone(snap.eq),
		num:    maps.Clone(snap.num),
	}
	for name := range oldProps {
		if next.props[name]--; next.props[name] == 0 {
			delete(next.props, name)
		}
	}
	for name := range freshProps {
		next.props[name]++
	}

	for name, lit := range oldProps {
		if k, ok := eqKey(name, litVal(lit)); ok {
			if l, kept := freshProps[name]; !kept || litVal(l) != litVal(lit) {
				next.setEq(k, spliceOffers(next.eq[k], old, nil))
			}
		}
	}
	for name, lit := range freshProps {
		if k, ok := eqKey(name, litVal(lit)); ok {
			next.setEq(k, spliceOffers(next.eq[k], old, fresh))
		}
	}

	renum := func(name string) {
		ov, oh := number(oldProps, name)
		nv, nh := number(freshProps, name)
		if !oh && !nh {
			return
		}
		idx := spliceNum(next.num[name], id, ov, oh, nv, nh, fresh)
		if idx.Len() == 0 {
			delete(next.num, name)
		} else {
			next.num[name] = idx
		}
	}
	for name := range oldProps {
		renum(name)
	}
	for name := range freshProps {
		if _, done := oldProps[name]; !done {
			renum(name)
		}
	}
	return next
}

func (snap *typeSnapshot) setEq(k eqK, list runs[*Offer]) {
	if list.Len() == 0 {
		delete(snap.eq, k)
	} else {
		snap.eq[k] = list
	}
}

// eqKey returns the equality-index key of one property value. Numbers
// have none: the numeric index answers "prop == x" (see bounds).
func eqKey(name string, v cval) (eqK, bool) {
	switch v.kind {
	case cvStr, cvSym:
		return eqK{prop: name, kind: v.kind, str: v.str}, true
	case cvBool:
		return eqK{prop: name, kind: cvBool, b: v.b}, true
	}
	return eqK{}, false
}

// byRefID is the order of a snapshot's offer and posting lists.
func byRefID(a, b *Offer) int {
	if c := compareRef(a.Ref, b.Ref); c != 0 {
		return c
	}
	return strings.Compare(a.ID, b.ID)
}

func compareRef(a, b ref.ServiceRef) int {
	if c := strings.Compare(a.Endpoint, b.Endpoint); c != 0 {
		return c
	}
	return strings.Compare(a.Service, b.Service)
}

// byValID is the order of a numeric index.
func byValID(a, b numEntry) int {
	switch {
	case a.val < b.val:
		return -1
	case a.val > b.val:
		return 1
	}
	return strings.Compare(a.o.ID, b.o.ID)
}

// spliceOffers returns the (Ref, ID)-ordered list without old and with
// fresh; either may be nil.
func spliceOffers(list runs[*Offer], old, fresh *Offer) runs[*Offer] {
	del, ins := -1, -1
	if old != nil {
		i, e, ok := list.find(func(e *Offer) bool { return byRefID(e, old) >= 0 })
		if ok && byRefID(e, old) == 0 {
			del = i
		}
	}
	if fresh != nil {
		ins = list.search(func(e *Offer) bool { return byRefID(e, fresh) >= 0 })
		if del >= 0 && ins > del {
			ins--
		}
	}
	return list.splice(del, ins, fresh)
}

// spliceNum returns the numeric index idx without the entry of offer id
// at value del when hasDel, and with o inserted at value add when
// hasAdd.
func spliceNum(idx runs[numEntry], id string, del float64, hasDel bool, add float64, hasAdd bool, o *Offer) runs[numEntry] {
	at := func(x float64) (int, numEntry, bool) {
		return idx.find(func(e numEntry) bool { return e.val > x || e.val == x && e.o.ID >= id })
	}
	d, ins := -1, -1
	if hasDel {
		if i, e, ok := at(del); ok && e.val == del && e.o.ID == id {
			d = i
		}
	}
	if hasAdd {
		if ins, _, _ = at(add); d >= 0 && ins > d {
			ins--
		}
	}
	return idx.splice(d, ins, numEntry{add, o})
}

// bounds returns the index range [lo, hi) of the entries of idx
// satisfying "value op x". Equality is the range [first >= x, first >
// x): -0 and +0 fall in one range, as they compare equal, and NaN is
// never stored, as it equals nothing.
func bounds(idx runs[numEntry], op string, x float64) (lo, hi int) {
	geq := func() int { return idx.search(func(e numEntry) bool { return e.val >= x }) }
	gt := func() int { return idx.search(func(e numEntry) bool { return e.val > x }) }
	switch op {
	case "==":
		return geq(), gt()
	case "<":
		return 0, geq()
	case "<=":
		return 0, gt()
	case ">":
		return gt(), idx.Len()
	case ">=":
		return geq(), idx.Len()
	}
	return 0, 0
}

// span is the positions [lo, hi) of one snapshot list: of an offer list,
// or, when num is set, of a numeric index.
type span struct {
	offers runs[*Offer]
	idx    runs[numEntry]
	num    bool
	lo, hi int
}

func (s span) Len() int { return s.hi - s.lo }

// each calls fn on the span's offers in order until fn returns false.
func (s span) each(fn func(*Offer) bool) {
	if s.num {
		s.idx.each(s.lo, s.hi, func(e numEntry) bool { return fn(e.o) })
		return
	}
	s.offers.each(s.lo, s.hi, fn)
}

// hintSpan returns the offers one index hint narrows the snapshot to and
// which index kind answered ("eq" or "range"), or false when no index
// answers the hint.
func (snap *typeSnapshot) hintSpan(h indexHint) (span, string, bool) {
	if h.rhsProp != "" && snap.props[h.rhsProp] > 0 {
		// The "literal" side names a real property of some offer in
		// this snapshot, so it does not uniformly resolve to an enum
		// symbol; the posting list would not be a superset.
		return span{}, "", false
	}
	switch {
	case h.val.kind == cvNum:
		idx := snap.num[h.prop]
		lo, hi := bounds(idx, h.op, h.val.num)
		return span{idx: idx, num: true, lo: lo, hi: hi}, "range", true
	case h.op == "==":
		if k, ok := eqKey(h.prop, h.val); ok {
			list := snap.eq[k]
			return span{offers: list, hi: list.Len()}, "eq", true
		}
	}
	return span{}, "", false
}

// candidates narrows the snapshot to offers that can possibly satisfy
// the constraint, using the most selective applicable index hint, and
// reports which index kind answered ("eq", "range", or "scan"). The
// result is a superset of the matching offers — every hint is a
// necessary condition — so the caller still evaluates the full
// constraint on each candidate.
func (snap *typeSnapshot) candidates(c *Constraint) (span, string) {
	best, kind := span{offers: snap.offers, hi: snap.offers.Len()}, "scan"
	for _, h := range c.hints() {
		cand, k, ok := snap.hintSpan(h)
		switch {
		case !ok:
		case cand.num && cand.idx.Len() == 0:
			return cand, k // no numeric values: nothing can match
		case cand.Len() < best.Len() || kind == "scan":
			best, kind = cand, k
		}
	}
	return best, kind
}
