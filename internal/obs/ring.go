package obs

import "sync"

// Occupancy is what a bounded buffer reports, like every bounded ring,
// queue and cache of the system: what it holds, and what it dropped to
// stay within its bound. The zero value, and one from a nil registry,
// reports nothing at no cost.
type Occupancy struct {
	retained *Gauge
	dropped  *Counter
}

// Occupancy registers the families <family>_retained and
// <family>_<drop>_total of a bounded buffer, the holder, that holds
// what (a plural noun: "Spans", "Compiled constraints") and drops the
// oldest or least recently used of them when full.
func (r *Registry) Occupancy(family, drop, what, holder string) Occupancy {
	return Occupancy{
		retained: r.Gauge(family+"_retained", what+" the "+holder+" currently holds."),
		dropped:  r.Counter(family+"_"+drop+"_total", what+" evicted from the full "+holder+" by newer ones."),
	}
}

// ring is the bounded ring of the flight recorder's spans and events:
// one buffer of the last len(buf) entries under one mutex, the oldest
// overwritten by each add once the buffer is full.
type ring[T any] struct {
	mu    sync.Mutex
	buf   []T
	added uint64 // entries ever added; the next goes to buf[added%len(buf)]
	occ   Occupancy
}

// add fills the next slot under the ring's lock, overwriting the oldest
// entry when the ring is full. fill gets the slot and the entry's
// 1-based number in the ring's history.
func (r *ring[T]) add(fill func(slot *T, n uint64)) {
	r.mu.Lock()
	i := r.added % uint64(len(r.buf))
	r.added++
	fill(&r.buf[i], r.added)
	evicting := r.added > uint64(len(r.buf))
	r.mu.Unlock()
	if evicting {
		r.occ.dropped.Inc()
	} else {
		r.occ.retained.Add(1)
	}
}

// snapshot copies the retained entries, oldest first.
func (r *ring[T]) snapshot() []T {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.added < uint64(len(r.buf)) {
		out := make([]T, r.added)
		copy(out, r.buf)
		return out
	}
	next := int(r.added % uint64(len(r.buf)))
	out := make([]T, len(r.buf))
	copy(out, r.buf[next:])
	copy(out[len(r.buf)-next:], r.buf[:next])
	return out
}

// len reports how many entries are retained.
func (r *ring[T]) len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return int(min(r.added, uint64(len(r.buf))))
}
