package core

import "slices"

// runCap bounds the entries of one run: a write copies the spine and
// the run it touches, O(n/runCap + runCap) for a list of n entries,
// where a copy of the whole list would be O(n).
const runCap = 64

// runs is an immutable list kept as a spine of bounded runs; its owner
// keeps it sorted. A snapshot's offer list and index table, and every
// posting list and numeric index the table holds, are runs, and a
// derived snapshot shares every run its write did not touch with the
// one it derives from (see editor). A run is never changed once a
// snapshot holds it, so readers of an older snapshot are unaffected by
// writes.
//
// No run is empty or longer than runCap, no run but the last holds
// fewer than runCap/4 entries, and each run's end is the count of
// entries up to and including it, so a position is found by a binary
// search of the spine that reads no run's items.
type runs[E any] struct {
	spine []run[E]
}

type run[E any] struct {
	items []E
	end   int // entries in this run and all before it
}

// runsOf chunks a sorted slice into full runs that share its array; the
// caller gives it up.
func runsOf[E any](items []E) runs[E] {
	var r runs[E]
	if len(items) == 0 {
		return r
	}
	r.spine = make([]run[E], 0, (len(items)+runCap-1)/runCap)
	for lo := 0; lo < len(items); lo += runCap {
		hi := min(lo+runCap, len(items))
		r.spine = append(r.spine, run[E]{items: items[lo:hi:hi], end: hi})
	}
	return r
}

// Len returns the number of entries.
func (r runs[E]) Len() int {
	if n := len(r.spine); n > 0 {
		return r.spine[n-1].end
	}
	return 0
}

// runOf returns the run holding position i, 0 <= i < Len.
func (r runs[E]) runOf(i int) int {
	lo, hi := 0, len(r.spine)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if r.spine[m].end <= i {
			lo = m + 1
		} else {
			hi = m
		}
	}
	return lo
}

func (rn *run[E]) start() int { return rn.end - len(rn.items) }

// At returns the entry at position i, 0 <= i < Len.
func (r runs[E]) At(i int) E {
	rn := &r.spine[r.runOf(i)]
	return rn.items[i-rn.start()]
}

// search returns the first position whose entry satisfies pred, or Len
// if none does; pred must be false up to some position and true from
// there on, as for sort.Search.
func (r runs[E]) search(pred func(E) bool) int {
	i, _, _ := r.find(pred)
	return i
}

// find is search that also returns the entry at the position found,
// false when it is Len, so a caller that checks it pays no second
// search of the spine.
func (r runs[E]) find(pred func(E) bool) (int, E, bool) {
	lo, hi := 0, len(r.spine) // first run whose last entry satisfies pred
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		if items := r.spine[m].items; pred(items[len(items)-1]) {
			hi = m
		} else {
			lo = m + 1
		}
	}
	if lo == len(r.spine) {
		var zero E
		return r.Len(), zero, false
	}
	rn := &r.spine[lo]
	i, j := 0, len(rn.items)
	for i < j {
		m := int(uint(i+j) >> 1)
		if pred(rn.items[m]) {
			j = m
		} else {
			i = m + 1
		}
	}
	return rn.start() + i, rn.items[i], true
}

// each calls fn on the entries at positions [lo, hi) in order until fn
// returns false.
func (r runs[E]) each(lo, hi int, fn func(E) bool) {
	if lo >= hi {
		return
	}
	for k := r.runOf(lo); k < len(r.spine) && lo < hi; k++ {
		rn := &r.spine[k]
		for _, e := range rn.items[lo-rn.start() : min(hi, rn.end)-rn.start()] {
			if !fn(e) {
				return
			}
		}
		lo = rn.end
	}
}

// all returns the entries as one slice.
func (r runs[E]) all() []E {
	out := make([]E, 0, r.Len())
	for _, rn := range r.spine {
		out = append(out, rn.items...)
	}
	return out
}

// splice returns the list with the entry at position del removed (del <
// 0: none) and then e inserted at position ins of what is left (ins < 0:
// none). It copies the spine and each run it touches once; r is
// unchanged.
func (r runs[E]) splice(del, ins int, e E) runs[E] {
	ed := editor[E]{runs: r}
	if del >= 0 {
		ed.remove(del)
	}
	if ins >= 0 {
		ed.insert(ins, e)
	}
	return ed.runs
}

// editor makes a batch of changes to a list, copy-on-write: it copies
// the spine on the first change and a run on the first change to it, and
// makes every later change to a run it copied in place. A batch costs
// one spine copy plus one copy per run it touches; the list the editor
// started from is unchanged.
type editor[E any] struct {
	runs[E]
	copied bool // the spine is the editor's
	// made holds the first entry of each run the editor made, the runs
	// it changes in place. It holds a few; a run made past them is
	// copied again on each change, which costs only that copy.
	made  [4]*E
	nmade int
}

// copySpine makes the spine the editor's, with room for two more runs.
func (ed *editor[E]) copySpine() {
	if !ed.copied {
		ed.spine = append(make([]run[E], 0, len(ed.spine)+2), ed.spine...)
		ed.copied = true
	}
}

// mine reports whether the editor made the run holding items.
func (ed *editor[E]) mine(items []E) bool {
	for _, p := range ed.made[:ed.nmade] {
		if p == &items[0] {
			return true
		}
	}
	return false
}

// adopt records items as a run the editor made.
func (ed *editor[E]) adopt(items []E) {
	if ed.nmade < len(ed.made) && !ed.mine(items) {
		ed.made[ed.nmade] = &items[0]
		ed.nmade++
	}
}

// own returns run k's entries for the editor to change in place: the run
// itself when the editor made it, else a copy with room for extra more
// entries, which replaces it in the spine.
func (ed *editor[E]) own(k, extra int) []E {
	items := ed.spine[k].items
	if ed.mine(items) {
		return items
	}
	items = append(make([]E, 0, len(items)+extra), items...)
	ed.spine[k].items = items
	ed.adopt(items)
	return items
}

// set replaces the entry at position i, 0 <= i < Len.
func (ed *editor[E]) set(i int, e E) {
	ed.copySpine()
	k := ed.runOf(i)
	ed.own(k, 0)[i-ed.spine[k].start()] = e
}

// remove deletes the entry at position i, 0 <= i < Len. Removing the
// last entry leaves no spine behind; a run left empty leaves the spine;
// one left under runCap/4 merges with a neighbour, so that deletes
// cannot wear the spine down to runs of one entry.
func (ed *editor[E]) remove(i int) {
	if ed.Len() == 1 {
		ed.runs, ed.copied = runs[E]{}, true
		return
	}
	ed.copySpine()
	k := ed.runOf(i)
	rn := &ed.spine[k]
	j := i - rn.start()
	for m := k; m < len(ed.spine); m++ {
		ed.spine[m].end--
	}
	if len(rn.items) == 1 {
		ed.spine = slices.Delete(ed.spine, k, k+1)
		return
	}
	if len(rn.items)-1 >= runCap/4 || len(ed.spine) == 1 {
		rn.items = slices.Delete(ed.own(k, 0), j, j+1)
		return
	}
	// Merge with the left neighbour, or the right one for the first run.
	a := max(k-1, 0)
	left, right := ed.spine[a].items, ed.spine[a+1].items
	items := make([]E, 0, len(left)+len(right)-1)
	if a == k {
		items = append(append(append(items, left[:j]...), left[j+1:]...), right...)
	} else {
		items = append(append(append(items, left...), right[:j]...), right[j+1:]...)
	}
	ed.adopt(items)
	end := ed.spine[a+1].end
	if len(items) <= runCap {
		ed.spine[a] = run[E]{items: items, end: end}
		ed.spine = slices.Delete(ed.spine, a+1, a+2)
		return
	}
	h := len(items) / 2
	ed.spine[a] = run[E]{items: items[:h:h], end: end - len(items) + h}
	ed.spine[a+1] = run[E]{items: items[h:], end: end}
	ed.adopt(items[h:])
}

// insert puts e at position i, 0 <= i <= Len. A run grown past runCap
// splits in two halves.
func (ed *editor[E]) insert(i int, e E) {
	ed.copySpine()
	if len(ed.spine) == 0 {
		items := []E{e}
		ed.spine = append(ed.spine, run[E]{items: items, end: 1})
		ed.adopt(items)
		return
	}
	k := min(ed.runOf(i), len(ed.spine)-1) // i == Len appends to the last run
	rn := &ed.spine[k]
	s := rn.start()
	items := slices.Insert(ed.own(k, 1), i-s, e)
	ed.adopt(items) // a run the editor made may have outgrown its array
	for m := k; m < len(ed.spine); m++ {
		ed.spine[m].end++
	}
	if len(items) <= runCap {
		rn.items = items
		return
	}
	h := len(items) / 2
	end := rn.end
	*rn = run[E]{items: items[:h:h], end: s + h}
	ed.spine = slices.Insert(ed.spine, k+1, run[E]{items: items[h:], end: end})
	ed.adopt(items[h:])
}
