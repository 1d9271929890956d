package core

import (
	"container/list"
	"sync"

	"cosm/internal/obs"
)

// lruCache is a bounded, mutex-guarded LRU map from string keys to
// values. It backs the compiled-constraint cache and the import-result
// cache: both are fed by remote callers, so without a bound a hostile
// importer could grow them without limit (one fresh constraint string
// per request).
type lruCache[V any] struct {
	mu      sync.Mutex
	cap     int
	ll      *list.List // front = most recently used
	items   map[string]*list.Element
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
	key string
	val V
}

// newLRU returns an LRU holding at most capacity entries and reporting
// to m. A capacity of zero or less yields a nil cache, on which get and
// add are no-ops.
func newLRU[V any](capacity int, m cacheMetrics) *lruCache[V] {
	if capacity <= 0 {
		return nil
	}
	return &lruCache[V]{cap: capacity, ll: list.New(), items: make(map[string]*list.Element, capacity), metrics: m}
}

// get returns the cached value and marks it most recently used.
func (c *lruCache[V]) get(key string) (V, bool) {
	var zero V
	if c == nil {
		return zero, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return zero, false
	}
	c.ll.MoveToFront(el)
	return el.Value.(*lruEntry[V]).val, true
}

// add inserts or refreshes key, evicting the least recently used entry
// beyond capacity.
func (c *lruCache[V]) add(key string, val V) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry[V]).val = val
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&lruEntry[V]{key: key, val: val})
	for c.ll.Len() > c.cap {
		last := c.ll.Back()
		c.ll.Remove(last)
		delete(c.items, last.Value.(*lruEntry[V]).key)
		c.metrics.evicted.Inc()
	}
	c.metrics.retained.Set(int64(c.ll.Len()))
}

// len reports the number of cached entries.
func (c *lruCache[V]) len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}
