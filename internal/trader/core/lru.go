package core

import (
	"sync"

	"cosm/internal/obs"
)

// lruCache is a bounded, mutex-guarded LRU map from string keys to
// values. It backs the compiled-constraint cache, which remote callers
// feed: without a bound a hostile importer could grow it without limit
// (one fresh constraint string per request).
//
// Its entries sit in one slice, linked into a circular recency list by
// index, so a hit allocates nothing, and once the cache is full neither
// does an add: the least recently used entry takes the new key in
// place. The slice grows by append up to the bound rather than being
// allocated whole at construction: a trader that sees few constraints,
// like a federation's peers, keeps a few entries, not the bound's.
type lruCache[V any] struct {
	mu      sync.Mutex
	bound   int
	ents    []lruEntry[V]    // the entries held, at most bound
	index   map[string]int32 // key -> its entry
	head    int32            // the most recently used entry; its prev is the least
	metrics cacheMetrics
}

// cacheMetrics is what a bounded cache reports, like every bounded ring
// and queue of the system: what it holds, and what it dropped to stay
// within its bound. Nil instruments (a nil registry) cost nothing.
type cacheMetrics struct {
	retained *obs.Gauge
	evicted  *obs.Counter
}

// newCacheMetrics registers the cosm_trader_<cache>_cache_retained and
// _evicted_total families; what names the entries.
func newCacheMetrics(reg *obs.Registry, cache, what string) cacheMetrics {
	return cacheMetrics{
		retained: reg.Gauge("cosm_trader_"+cache+"_cache_retained", what+" the "+cache+" cache currently holds."),
		evicted:  reg.Counter("cosm_trader_"+cache+"_cache_evicted_total", what+" evicted from the full "+cache+" cache by newer ones."),
	}
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next int32 // toward more and less recently used; the list is circular
}

// newLRU returns an LRU holding at most capacity entries and reporting
// to m. A capacity of zero or less yields a nil cache, on which get and
// add are no-ops.
func newLRU[V any](capacity int, m cacheMetrics) *lruCache[V] {
	if capacity <= 0 {
		return nil
	}
	return &lruCache[V]{bound: capacity, index: make(map[string]int32, capacity), metrics: m}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	i, ok := c.index[key]
	if !ok {
		return zero, false
	}
	c.touch(i)
	return c.ents[i].val, true
}

// add inserts or refreshes key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache[V]) add(key string, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.ents[i].val = val
		c.touch(i)
		return
	}
	if i := int32(len(c.ents)); int(i) < c.bound {
		c.ents = append(c.ents, lruEntry[V]{key: key, val: val})
		c.link(i, c.head) // the first entry, 0, links to itself
		c.head, c.index[key] = i, i
	} else {
		// The least recently used entry makes way: it takes the new
		// key and, one step around the circle, becomes the head.
		lru := c.ents[c.head].prev
		e := &c.ents[lru]
		delete(c.index, e.key)
		e.key, e.val = key, val
		c.head, c.index[key] = lru, lru
		c.metrics.evicted.Inc()
	}
	c.metrics.retained.Set(int64(len(c.ents)))
}

// touch makes entry i the most recently used.
func (c *lruCache[V]) touch(i int32) {
	if i == c.head {
		return
	}
	e := &c.ents[i]
	c.ents[e.prev].next, c.ents[e.next].prev = e.next, e.prev
	c.link(i, c.head)
	c.head = i
}

// link puts the unlinked entry i between entry at and its prev.
func (c *lruCache[V]) link(i, at int32) {
	prev := c.ents[at].prev
	c.ents[i].prev, c.ents[i].next = prev, at
	c.ents[prev].next, c.ents[at].prev = i, i
}

// len reports the number of cached entries.
func (c *lruCache[V]) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ents)
}
