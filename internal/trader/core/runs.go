package core

import "slices"

// runCap bounds the entries of one run: a write copies the spine and
// the run it touches, O(n/runCap + runCap) for a list of n entries,
// where a copy of the whole list would be O(n).
const runCap = 64

// runs is an immutable list kept as a spine of bounded runs; its owner
// keeps it sorted. A snapshot's offer list, posting lists and numeric
// indexes are runs, and a derived snapshot shares every run its write
// did not touch with the one it derives from (see splice). A run is
// never changed once a spine holds it, so readers of an older snapshot
// are unaffected by writes.
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
// none). It copies the spine and the runs it touches; r is unchanged.
func (r runs[E]) splice(del, ins int, e E) runs[E] {
	if del < 0 && ins < 0 {
		return r
	}
	out := runs[E]{spine: make([]run[E], len(r.spine), len(r.spine)+2)}
	copy(out.spine, r.spine)
	if del >= 0 {
		out.remove(del)
	}
	if ins >= 0 {
		out.insert(ins, e)
	}
	return out
}

// remove deletes the entry at position i from a spine the caller owns,
// copying its run. A run left empty leaves the spine; one left under
// runCap/4 merges with a neighbour, so that deletes cannot wear the
// spine down to runs of one entry.
func (r *runs[E]) remove(i int) {
	k := r.runOf(i)
	rn := &r.spine[k]
	j := i - rn.start()
	for m := k; m < len(r.spine); m++ {
		r.spine[m].end--
	}
	if len(rn.items) == 1 {
		r.spine = append(r.spine[:k], r.spine[k+1:]...)
		return
	}
	if len(rn.items)-1 >= runCap/4 || len(r.spine) == 1 {
		items := make([]E, 0, len(rn.items)-1)
		rn.items = append(append(items, rn.items[:j]...), rn.items[j+1:]...)
		return
	}
	// Merge with the left neighbour, or the right one for the first run.
	a := max(k-1, 0)
	left, right := r.spine[a].items, r.spine[a+1].items
	items := make([]E, 0, len(left)+len(right)-1)
	if a == k {
		items = append(append(append(items, left[:j]...), left[j+1:]...), right...)
	} else {
		items = append(append(append(items, left...), right[:j]...), right[j+1:]...)
	}
	end := r.spine[a+1].end
	if len(items) <= runCap {
		r.spine[a] = run[E]{items: items, end: end}
		r.spine = append(r.spine[:a+1], r.spine[a+2:]...)
		return
	}
	h := len(items) / 2
	r.spine[a] = run[E]{items: items[:h:h], end: end - len(items) + h}
	r.spine[a+1] = run[E]{items: items[h:], end: end}
}

// insert puts e at position i, 0 <= i <= Len, of a spine the caller
// owns, copying the run it lands in. A run grown past runCap splits in
// two halves.
func (r *runs[E]) insert(i int, e E) {
	if len(r.spine) == 0 {
		r.spine = append(r.spine, run[E]{items: []E{e}, end: 1})
		return
	}
	k := min(r.runOf(i), len(r.spine)-1) // i == Len appends to the last run
	rn := &r.spine[k]
	s := rn.start()
	items := make([]E, 0, len(rn.items)+1)
	items = slices.Insert(append(items, rn.items...), i-s, e)
	for m := k; m < len(r.spine); m++ {
		r.spine[m].end++
	}
	if len(items) <= runCap {
		rn.items = items
		return
	}
	h := len(items) / 2
	end := rn.end
	*rn = run[E]{items: items[:h:h], end: s + h}
	r.spine = append(r.spine, run[E]{})
	copy(r.spine[k+2:], r.spine[k+1:])
	r.spine[k+1] = run[E]{items: items[h:], end: end}
}
