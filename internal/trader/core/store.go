package core

import (
	"cmp"
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
// The offer list, the index table and every list the table holds are
// runs, so a derived snapshot shares all but the runs its write touched:
// the offer list's, the table's, and one per list it changed. The offer
// list and every posting list are in (Ref, ID) order, so the stored
// offers of one service — siblings, which an import deduplicates — sit
// together in ID order and are found by one binary search (see
// shadowedBy). sibs counts the offers whose Ref is their predecessor's
// in that order — each service's offers here less one, summed — so at
// 0 no offer has a sibling in this snapshot, and that search skips it.
type typeSnapshot struct {
	offers runs[*Offer] // in (Ref, ID) order
	sibs   int          // offers whose Ref is their predecessor's
	index  runs[indexEntry]
}

// indexEntry is one entry of a snapshot's index table, which is in
// indexKey order and holds an entry for each property name some offer
// carries and for each non-numeric (property, value) pair. A lookup is
// a binary search (see lookup), and a write copies the table's spine and
// the runs of the entries it changes, whatever the number of values.
type indexEntry struct {
	indexKey
	// A property entry counts the offers carrying the property — an
	// equality hint whose right-hand side is syntactically an identifier
	// is only index-resolvable when that identifier names no stored
	// property (see hintSpan) — and lists its numerically valued offers
	// in (value, ID) order: equal values, -0 and +0 among them, in ID
	// order, the way Policy.top breaks ties, so a walk in policy order
	// (see walkRanked) needs no sort.
	n   int
	num runs[numEntry]
	// A value entry holds the (Ref, ID)-ordered posting list of the
	// offers carrying exactly its value.
	list runs[*Offer]
}

// empty reports whether no offer is left in e, which then leaves the
// table.
func (e *indexEntry) empty() bool { return e.n == 0 && e.list.Len() == 0 }

// indexKey orders the index table by property, then kind, then value.
// A property entry has kind cvMissing, so it precedes its values. The
// kind is part of a value's key, so a string never collides with an
// enum symbol of the same spelling (mixed kinds never compare equal at
// eval time either).
type indexKey struct {
	prop string
	kind cvalKind
	b    bool
	str  string
}

func (k *indexKey) compare(o *indexKey) int {
	if c := strings.Compare(k.prop, o.prop); c != 0 {
		return c
	}
	if c := cmp.Compare(k.kind, o.kind); c != 0 {
		return c
	}
	if c := strings.Compare(k.str, o.str); c != 0 {
		return c
	}
	switch {
	case k.b == o.b:
		return 0
	case o.b:
		return -1
	}
	return 1
}

// propKey is the key of a property's entry.
func propKey(name string) indexKey { return indexKey{prop: name} }

// valueKey returns the key of the value entry of one property value.
// Numbers have none: the property entry's numeric index answers "prop
// == x" (see bounds).
func valueKey(name string, v cval) (indexKey, bool) {
	switch v.kind {
	case cvStr, cvSym:
		return indexKey{prop: name, kind: v.kind, str: v.str}, true
	case cvBool:
		return indexKey{prop: name, kind: cvBool, b: v.b}, true
	}
	return indexKey{}, false
}

// lookup returns the position of key k in the index table and a copy
// of its entry there; when the table has none, it returns the position
// k would take, the empty entry of k and false.
func lookup(table runs[indexEntry], k indexKey) (int, indexEntry, bool) {
	i, e, ok := table.find(func(e indexEntry) bool { return e.compare(&k) >= 0 })
	if !ok || e.indexKey != k {
		return i, indexEntry{indexKey: k}, false
	}
	return i, e, true
}

// prop returns the snapshot's entry for the property name, nil when no
// offer carries it. It is lookup for the read path, which looks a
// property up for each numeric hint and each walked bucket: a
// property's entry is the first of its entries, so a search by name
// alone finds it, comparing one string per probe in place, where
// lookup's closure and full key compare per probe cost 2–3 times as
// much. The entry is the snapshot's: read only.
func (snap *typeSnapshot) prop(name string) *indexEntry {
	spine := snap.index.spine
	lo, hi := 0, len(spine) // first run whose last entry is at or past name
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if items := spine[m].items; items[len(items)-1].prop >= name {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(spine) {
		return nil
	}
	items := spine[lo].items
	i, j := 0, len(items)
	for i < j {
		m := int(uint(i+j) >> 1)
		if items[m].prop >= name {
			j = m
		} else {
			i = m + 1
		}
	}
	if items[i].prop != name {
		return nil
	}
	return &items[i]
}

// numEntry is one offer of a numeric index and its value there.
type numEntry struct {
	val float64
	o   *Offer
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
	type lists struct {
		n    int
		num  []numEntry
		list []*Offer
	}
	entries := map[indexKey]*lists{}
	at := func(k indexKey) *lists {
		l := entries[k]
		if l == nil {
			l = &lists{}
			entries[k] = l
		}
		return l
	}
	snap := &typeSnapshot{offers: runsOf(offers)}
	for i, o := range offers { // (Ref, ID) order keeps posting lists sorted
		if i > 0 && offers[i-1].Ref == o.Ref {
			snap.sibs++
		}
		for name, lit := range o.Props {
			p := at(propKey(name))
			p.n++
			if k, ok := valueKey(name, litVal(lit)); ok {
				v := at(k)
				v.list = append(v.list, o)
			} else if x, ok := number(o.Props, name); ok {
				p.num = append(p.num, numEntry{x, o})
			}
		}
	}
	table := make([]indexEntry, 0, len(entries))
	for k, l := range entries {
		slices.SortFunc(l.num, byValID)
		table = append(table, indexEntry{indexKey: k, n: l.n, num: runsOf(l.num), list: runsOf(l.list)})
	}
	slices.SortFunc(table, func(a, b indexEntry) int { return a.compare(&b.indexKey) })
	snap.index = runsOf(table)
	return snap
}

// derive returns the snapshot that replacing old by fresh (see
// typeBucket.write) makes of snap. The offer list, and each posting
// list and numeric index holding old or fresh, get one sorted delete
// and/or insert, which copies their spine and the run it touches; the
// index table gets its changed entries in one edit, which copies its
// spine once and each run it touches once. Every other run and list is
// shared with snap, which stays valid for the readers holding it.
func (snap *typeSnapshot) derive(old, fresh *Offer) *typeSnapshot {
	var oldProps, freshProps map[string]sidl.Lit
	if old != nil {
		oldProps = old.Props
	}
	if fresh != nil {
		freshProps = fresh.Props
	}
	offers, sibs := spliceOffers(snap.offers, old, fresh)
	table := editor[indexEntry]{runs: snap.index}
	for name := range oldProps {
		reindex(&table, name, old, fresh)
	}
	for name := range freshProps {
		if _, done := oldProps[name]; !done {
			reindex(&table, name, old, fresh)
		}
	}
	return &typeSnapshot{offers: offers, sibs: snap.sibs + sibs, index: table.runs}
}

// reindex makes in the index table what replacing old by fresh does to
// the property name: its entry's count and numeric index, and the
// posting lists of the values old and fresh carry for it.
func reindex(table *editor[indexEntry], name string, old, fresh *Offer) {
	var id string
	var oldProps, freshProps map[string]sidl.Lit
	if old != nil {
		id, oldProps = old.ID, old.Props
	}
	if fresh != nil {
		id, freshProps = fresh.ID, fresh.Props
	}
	ol, oh := oldProps[name]
	fl, fh := freshProps[name]
	ov, on := number(oldProps, name)
	fv, fn := number(freshProps, name)
	if oh != fh || on || fn {
		i, e, found := lookup(table.runs, propKey(name))
		switch {
		case fh && !oh:
			e.n++
		case oh && !fh:
			e.n--
		}
		e.num = spliceNum(e.num, id, ov, on, fv, fn, fresh)
		put(table, i, e, found)
	}
	ko, okOld := valueKey(name, litVal(ol))
	kf, okFresh := valueKey(name, litVal(fl))
	okOld, okFresh = okOld && oh, okFresh && fh
	if okOld && (!okFresh || ko != kf) {
		i, e, found := lookup(table.runs, ko)
		e.list, _ = spliceOffers(e.list, old, nil)
		put(table, i, e, found)
	}
	if okFresh {
		i, e, found := lookup(table.runs, kf)
		e.list, _ = spliceOffers(e.list, old, fresh)
		put(table, i, e, found)
	}
}

// put stores e at position i of the index table, where lookup found it
// (found) or would insert it: it replaces the entry found, drops one
// left empty, and inserts a new one.
func put(table *editor[indexEntry], i int, e indexEntry, found bool) {
	switch {
	case e.empty():
		if found {
			table.remove(i)
		}
	case found:
		table.set(i, e)
	default:
		table.insert(i, e)
	}
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
	if h.val.kind == cvSym {
		if snap.prop(h.val.str) != nil {
			// The "literal" side names a real property of some offer
			// in this snapshot, so it does not uniformly resolve to an
			// enum symbol; the posting list would not be a superset.
			return span{}, "", false
		}
	}
	switch {
	case h.val.kind == cvNum:
		var idx runs[numEntry]
		if p := snap.prop(h.prop); p != nil {
			idx = p.num
		}
		lo, hi := bounds(idx, h.op, h.val.num)
		return span{idx: idx, num: true, lo: lo, hi: hi}, "range", true
	case h.op == opEq:
		if k, ok := valueKey(h.prop, h.val); ok {
			_, v, _ := lookup(snap.index, k)
			return span{offers: v.list, hi: v.list.Len()}, "eq", true
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
