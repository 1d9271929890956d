package core

import (
	"maps"
	"slices"
	"strings"
	"sync/atomic"
	"time"

	"cosm/internal/ref"
	"cosm/internal/sidl"
)

// typeBucket counts one stored service type's offers (they are the
// store's byID entries of that type) and holds its matching snapshot.
// snap is nil until the first read builds it, and from then on every
// write derives the next one (see write).
type typeBucket struct {
	n    int
	snap atomic.Pointer[typeSnapshot]
}

// write records a mutation of b that replaced old by fresh — the same
// offer ID; old is nil for an insert, fresh for a removal. A bucket some
// reader has snapshotted gets the next snapshot derived from the current
// one; a bucket nobody has read yet (recovery, a fresh follower) builds
// nothing. The caller holds the store's write lock.
func (b *typeBucket) write(old, fresh *Offer) {
	if snap := b.snap.Load(); snap != nil {
		b.snap.Store(snap.derive(old, fresh))
	}
}

// Clear empties the store — a follower installing a leader snapshot
// replaces its contents wholesale.
func (s *State) Clear() {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.types = map[string]*typeBucket{}
	s.byID = map[string]*Offer{}
}

// insert stores an immutable offer. Re-inserting a stored ID — a
// replayed export — replaces the stored offer, never duplicates it (an
// ID names one offer of one type for life).
func (s *State) insert(o *Offer) {
	s.mu.Lock()
	defer s.mu.Unlock()
	b := s.types[o.Type]
	if b == nil {
		b = &typeBucket{}
		s.types[o.Type] = b
	}
	old := s.byID[o.ID]
	if old == nil {
		b.n++
	}
	s.byID[o.ID] = o
	b.write(old, o)
}

// remove withdraws an offer by ID and returns it.
func (s *State) remove(id string) (*Offer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.byID[id]
	if ok {
		s.dropLocked(o)
	}
	return o, ok
}

// dropLocked deletes the stored offer o from byID and from its type
// bucket, and the bucket once it is empty; the caller holds the write
// lock.
func (s *State) dropLocked(o *Offer) {
	delete(s.byID, o.ID)
	b := s.types[o.Type]
	if b.n--; b.n == 0 {
		delete(s.types, o.Type)
		return
	}
	b.write(o, nil)
}

// update swaps the stored offer for id with a copy edited by set (copy-
// on-write: stored offers are immutable, so set only ever sees the
// fresh copy) and returns that copy.
func (s *State) update(id string, set func(fresh *Offer)) (*Offer, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	o, ok := s.byID[id]
	if !ok {
		return nil, false
	}
	fresh := *o
	set(&fresh)
	s.byID[id] = &fresh
	s.types[o.Type].write(o, &fresh)
	return &fresh, true
}

// purgeExpired removes and returns the offers whose lease ran out at
// time now.
func (s *State) purgeExpired(now time.Time) []*Offer {
	s.mu.Lock()
	defer s.mu.Unlock()
	var purged []*Offer
	for _, o := range s.byID {
		if o.Expired(now) {
			s.dropLocked(o)
			purged = append(purged, o)
		}
	}
	return purged
}

// each calls fn for every stored offer, expired ones included, under
// the store's read lock.
func (s *State) each(fn func(*Offer)) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, o := range s.byID {
		fn(o)
	}
}

// pin returns the current matching snapshot of the stored type bucket
// b, building it on the type's first read. The caller holds the read
// lock: writers are excluded, so a built snapshot is consistent with
// byID, and a writer that runs after the caller releases derives its
// successor from it. Concurrent readers may build duplicates; they are
// identical, and the duplicate work is bounded by one build per reader
// already past the nil check.
func (s *State) pin(serviceType string, b *typeBucket) *typeSnapshot {
	if snap := b.snap.Load(); snap != nil {
		return snap
	}
	snap := s.buildSnapshot(serviceType)
	b.snap.Store(snap)
	s.rebuilds.Inc()
	return snap
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
// by one binary search (see shadowedBy). sibs counts the offers whose
// Ref is their predecessor's in that order — each service's offers
// here less one, summed — so at 0 no offer has a sibling in this
// snapshot, and that search skips it.
type typeSnapshot struct {
	offers runs[*Offer] // in (Ref, ID) order
	sibs   int          // offers whose Ref is their predecessor's
	// props counts the offers carrying each property name; an equality
	// hint whose right-hand side is syntactically an identifier is only
	// index-resolvable when that identifier names no stored property
	// (see indexHint).
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

// buildSnapshot builds serviceType's snapshot from the stored offers of
// that type; the caller holds the store's lock.
func (s *State) buildSnapshot(serviceType string) *typeSnapshot {
	offers := make([]*Offer, 0, s.types[serviceType].n)
	for _, o := range s.byID {
		if o.Type == serviceType {
			offers = append(offers, o)
		}
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
	for i, o := range offers { // (Ref, ID) order keeps posting lists sorted
		if i > 0 && offers[i-1].Ref == o.Ref {
			snap.sibs++
		}
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
	offers, sibs := spliceOffers(snap.offers, old, fresh)
	next := &typeSnapshot{
		offers: offers,
		sibs:   snap.sibs + sibs,
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
				list, _ := spliceOffers(next.eq[k], old, nil)
				next.setEq(k, list)
			}
		}
	}
	for name, lit := range freshProps {
		if k, ok := eqKey(name, litVal(lit)); ok {
			list, _ := spliceOffers(next.eq[k], old, fresh)
			next.setEq(k, list)
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
// fresh, either of which may be nil, and what that adds to the list's
// sibling count (see typeSnapshot.sibs): -1 when old leaves a sibling
// behind, +1 when fresh joins one. Siblings are adjacent, so the
// neighbours of the two positions decide; a swap that keeps the Ref
// changes no count and reads none.
func spliceOffers(list runs[*Offer], old, fresh *Offer) (runs[*Offer], int) {
	moved := old == nil || fresh == nil || old.Ref != fresh.Ref
	del, ins, sibs := -1, -1, 0
	if old != nil {
		i, e, ok := list.find(func(e *Offer) bool { return byRefID(e, old) >= 0 })
		if ok && byRefID(e, old) == 0 {
			del = i
			if moved && (refAt(list, i-1, old.Ref) || refAt(list, i+1, old.Ref)) {
				sibs--
			}
		}
	}
	if fresh != nil {
		ins = list.search(func(e *Offer) bool { return byRefID(e, fresh) >= 0 })
		if moved && (refAt(list, ins-1, fresh.Ref) || refAt(list, ins, fresh.Ref)) {
			sibs++
		}
		if del >= 0 && ins > del {
			ins--
		}
	}
	return list.splice(del, ins, fresh), sibs
}

// refAt reports whether list has an entry at position i and its Ref is r.
func refAt(list runs[*Offer], i int, r ref.ServiceRef) bool {
	return i >= 0 && i < list.Len() && list.At(i).Ref == r
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
func bounds(idx runs[numEntry], op cop, x float64) (lo, hi int) {
	geq := func() int { return idx.search(func(e numEntry) bool { return e.val >= x }) }
	gt := func() int { return idx.search(func(e numEntry) bool { return e.val > x }) }
	switch op {
	case opEq:
		return geq(), gt()
	case opLt:
		return 0, geq()
	case opLe:
		return 0, gt()
	case opGt:
		return gt(), idx.Len()
	case opGe:
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
	if h.val.kind == cvSym && snap.props[h.val.str] > 0 {
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
	case h.op == opEq:
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
