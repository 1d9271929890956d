package core

import (
	"maps"
	"slices"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cosm/internal/match"
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
// snapshot. version counts mutations (guarded by the owning shard's
// lock); snap is nil until the first read builds it, and from then on
// every write derives the next one (see write).
type typeBucket struct {
	name    string
	offers  map[string]*Offer
	version uint64
	snap    atomic.Pointer[typeSnapshot]
}

// write records a mutation of b that replaced old by fresh — the same
// offer ID; old is nil for an insert, fresh for a removal. A bucket some
// reader has snapshotted gets the next snapshot derived from the current
// one; a bucket nobody has read yet (recovery, a fresh follower) builds
// nothing. The caller holds the shard's write lock.
func (b *typeBucket) write(old, fresh *Offer) {
	b.version++
	if snap := b.snap.Load(); snap != nil {
		b.snap.Store(snap.derive(b.version, old, fresh))
	}
}

// resolution pins the graded stored types matching one request type at
// a (store generation, repo generation) pair.
type resolution struct {
	storeGen uint64
	repoGen  uint64
	types    []match.TypeMatch
}

// bucketVersion records the version of one consulted type bucket, for
// import-result cache validation.
type bucketVersion struct {
	name    string
	version uint64
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

// gens returns the generation pair import-result cache entries are
// validated against.
func (s *State) gens() (storeGen, repoGen uint64) {
	return s.typeSetGen.Load(), s.repo.Gen()
}

// Clear empties the store — a follower installing a leader snapshot
// replaces its contents wholesale. Bumping the type-set generation
// invalidates cached resolutions and import results implicitly.
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
	storeGen, repoGen := s.gens()
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
	// built snapshot is consistent with b.version, and a writer that
	// runs after we release derives its successor from it. Concurrent
	// readers may build duplicates; they are identical, and the
	// duplicate work is bounded by one build per reader already past the
	// nil check.
	snap := buildSnapshot(b)
	b.snap.Store(snap)
	s.rebuilds.Inc()
	return snap, true
}

// validate reports whether an import-result cache entry still describes
// the store: same type set, same repo generation, and every consulted
// bucket unchanged.
func (s *State) validate(e *importCacheEntry) bool {
	storeGen, repoGen := s.gens()
	if e.storeGen != storeGen || e.repoGen != repoGen {
		return false
	}
	for _, bv := range e.consulted {
		sh := s.shardFor(bv.name)
		sh.mu.RLock()
		b := sh.types[bv.name]
		ok := b != nil && b.version == bv.version
		sh.mu.RUnlock()
		if !ok {
			return false
		}
	}
	return true
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
type typeSnapshot struct {
	version uint64
	offers  []*Offer // sorted by ID
	// props counts the offers carrying each property name; an equality
	// hint whose right-hand side is syntactically an identifier is only
	// index-resolvable when that identifier names no stored property
	// (see indexHint.rhsProp).
	props map[string]int
	// eq maps an eqKey to the ID-sorted posting list of offers carrying
	// exactly that value.
	eq map[string][]*Offer
	// num maps property name to its offers sorted by numeric value.
	num map[string]*numIndex
}

// numIndex holds one property's numerically valued offers sorted
// ascending by value; vals[i] is the value of offers[i].
type numIndex struct {
	vals   []float64
	offers []*Offer
}

func buildSnapshot(b *typeBucket) *typeSnapshot {
	snap := &typeSnapshot{
		version: b.version,
		offers:  make([]*Offer, 0, len(b.offers)),
		props:   map[string]int{},
		eq:      map[string][]*Offer{},
		num:     map[string]*numIndex{},
	}
	for _, o := range b.offers {
		snap.offers = append(snap.offers, o)
	}
	sort.Slice(snap.offers, func(i, j int) bool { return snap.offers[i].ID < snap.offers[j].ID })
	for _, o := range snap.offers { // ID order keeps posting lists sorted
		for name, lit := range o.Props {
			snap.props[name]++
			if k, ok := eqKey(name, litVal(lit)); ok {
				snap.eq[k] = append(snap.eq[k], o)
			} else if x, ok := number(o.Props, name); ok {
				ni := snap.num[name]
				if ni == nil {
					ni = &numIndex{}
					snap.num[name] = ni
				}
				ni.vals = append(ni.vals, x)
				ni.offers = append(ni.offers, o)
			}
		}
	}
	for _, ni := range snap.num {
		sort.Sort(ni)
	}
	return snap
}

// derive returns the snapshot that replacing old by fresh (see
// typeBucket.write) makes of snap, at the given version. The offer list
// and each posting list and numeric index holding old or fresh are
// copied with one sorted delete and/or insert; every other list and
// index is shared with snap, which stays valid for the readers holding
// it.
func (snap *typeSnapshot) derive(version uint64, old, fresh *Offer) *typeSnapshot {
	var id string
	var oldProps, freshProps map[string]sidl.Lit
	if old != nil {
		id, oldProps = old.ID, old.Props
	}
	if fresh != nil {
		id, freshProps = fresh.ID, fresh.Props
	}
	next := &typeSnapshot{
		version: version,
		offers:  spliceID(snap.offers, id, fresh),
		props:   maps.Clone(snap.props),
		eq:      maps.Clone(snap.eq),
		num:     maps.Clone(snap.num),
	}
	for name := range oldProps {
		if next.props[name]--; next.props[name] == 0 {
			delete(next.props, name)
		}
	}
	for name := range freshProps {
		next.props[name]++
	}

	freshKeys := eqKeys(freshProps)
	for _, k := range eqKeys(oldProps) {
		if !slices.Contains(freshKeys, k) {
			next.setEq(k, spliceID(next.eq[k], id, nil))
		}
	}
	for _, k := range freshKeys {
		next.setEq(k, spliceID(next.eq[k], id, fresh))
	}

	renum := func(name string) {
		ov, oh := number(oldProps, name)
		nv, nh := number(freshProps, name)
		if !oh && !nh {
			return
		}
		ni := next.num[name].splice(id, ov, oh, nv, nh, fresh)
		if len(ni.vals) == 0 {
			delete(next.num, name)
		} else {
			next.num[name] = ni
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

func (snap *typeSnapshot) setEq(k string, list []*Offer) {
	if len(list) == 0 {
		delete(snap.eq, k)
	} else {
		snap.eq[k] = list
	}
}

// eqKey returns the equality-index key of one property value. Numbers
// have none: the numeric index answers "prop == x" (see rangeOf).
func eqKey(name string, v cval) (string, bool) {
	key, ok := v.key()
	if !ok {
		return "", false
	}
	return name + "\x00" + key, true
}

// eqKeys returns the equality-index keys of a property set.
func eqKeys(props map[string]sidl.Lit) []string {
	var keys []string
	for name, lit := range props {
		if k, ok := eqKey(name, litVal(lit)); ok {
			keys = append(keys, k)
		}
	}
	return keys
}

// spliceID returns a copy of the ID-sorted list without the entry for
// id and, when o (whose ID is id) is not nil, with o in its place.
func spliceID(list []*Offer, id string, o *Offer) []*Offer {
	i, found := slices.BinarySearchFunc(list, id, func(e *Offer, id string) int { return strings.Compare(e.ID, id) })
	out := make([]*Offer, 0, len(list)+1)
	out = append(out, list[:i]...)
	if o != nil {
		out = append(out, o)
	}
	if found {
		i++
	}
	return append(out, list[i:]...)
}

// splice returns a copy of ni (nil: empty) without the entry of offer
// id at value del when hasDel, and with o inserted at value add when
// hasAdd. Entries of equal value keep no particular order.
func (ni *numIndex) splice(id string, del float64, hasDel bool, add float64, hasAdd bool, o *Offer) *numIndex {
	var vals []float64
	var offers []*Offer
	if ni != nil {
		vals, offers = ni.vals, ni.offers
	}
	out := &numIndex{vals: make([]float64, 0, len(vals)+1), offers: make([]*Offer, 0, len(vals)+1)}
	r := len(vals)
	if hasDel {
		for i := sort.SearchFloat64s(vals, del); i < len(vals) && vals[i] == del; i++ {
			if offers[i].ID == id {
				r = i
				break
			}
		}
	}
	out.vals = append(append(out.vals, vals[:r]...), vals[min(r+1, len(vals)):]...)
	out.offers = append(append(out.offers, offers[:r]...), offers[min(r+1, len(offers)):]...)
	if hasAdd {
		p := sort.Search(len(out.vals), func(i int) bool { return out.vals[i] > add })
		out.vals = slices.Insert(out.vals, p, add)
		out.offers = slices.Insert(out.offers, p, o)
	}
	return out
}

func (ni *numIndex) Len() int           { return len(ni.vals) }
func (ni *numIndex) Less(i, j int) bool { return ni.vals[i] < ni.vals[j] }
func (ni *numIndex) Swap(i, j int) {
	ni.vals[i], ni.vals[j] = ni.vals[j], ni.vals[i]
	ni.offers[i], ni.offers[j] = ni.offers[j], ni.offers[i]
}

// rangeOf returns the slice of offers satisfying "value op x". Equality
// is the range [first >= x, first > x): -0 and +0 fall in one range, as
// they compare equal, and NaN is never stored, as it equals nothing.
func (ni *numIndex) rangeOf(op string, x float64) []*Offer {
	geq := sort.SearchFloat64s(ni.vals, x) // first index with val >= x
	gt := sort.Search(len(ni.vals), func(i int) bool { return ni.vals[i] > x })
	switch op {
	case "==":
		return ni.offers[geq:gt]
	case "<":
		return ni.offers[:geq]
	case "<=":
		return ni.offers[:gt]
	case ">":
		return ni.offers[gt:]
	case ">=":
		return ni.offers[geq:]
	}
	return nil
}

// candidates narrows the snapshot to offers that can possibly satisfy
// the constraint, using the most selective applicable index hint, and
// reports which index kind answered ("eq", "range", or "scan"). The
// result is a superset of the matching offers — every hint is a
// necessary condition — so the caller still evaluates the full
// constraint on each candidate.
func (snap *typeSnapshot) candidates(c *Constraint) ([]*Offer, string) {
	best := snap.offers
	kind := "scan"
	for _, h := range c.hints() {
		if h.rhsProp != "" && snap.props[h.rhsProp] > 0 {
			// The "literal" side names a real property of some offer in
			// this snapshot, so it does not uniformly resolve to an enum
			// symbol; the posting list would not be a superset.
			continue
		}
		var cand []*Offer
		var k string
		switch {
		case h.val.kind == cvNum:
			ni := snap.num[h.prop]
			if ni == nil {
				return nil, "range" // no numeric values: nothing can match
			}
			cand, k = ni.rangeOf(h.op, h.val.num), "range"
		case h.op == "==":
			key, ok := eqKey(h.prop, h.val)
			if !ok {
				continue
			}
			cand, k = snap.eq[key], "eq"
		default:
			continue
		}
		if len(cand) < len(best) || kind == "scan" {
			best, kind = cand, k
		}
	}
	return best, kind
}
