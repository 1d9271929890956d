package obs

import "sync"

// LRU is a bounded, mutex-guarded LRU map from string keys to values.
// It backs the trader's compiled-constraint cache and a service's FSM
// sessions, which remote callers feed: without a bound a hostile caller
// could grow either without limit (one fresh constraint string or
// session per request).
//
// Its entries sit in one slice, linked into a circular recency list by
// index, so a hit allocates nothing, and once the cache is full neither
// does an add: the least recently used entry takes the new key in
// place. The slice and the index grow together, doubling up to the
// bound, rather than being allocated whole at construction: a trader
// that sees few constraints, like a federation's peers, keeps room for
// a few entries, not the bound's. The index is rebuilt at each doubling
// with room for the slice's, so it never grows on its own and a full
// cache's index is the one a presized map would be.
type LRU[V any] struct {
	mu    sync.Mutex
	bound int
	ents  []lruEntry[V]    // the entries held, at most bound
	index map[string]int32 // key -> its entry
	head  int32            // the most recently used entry; its prev is the least
	occ   Occupancy
}

type lruEntry[V any] struct {
	key        string
	val        V
	prev, next int32 // toward more and less recently used; the list is circular
}

// NewLRU returns an LRU holding at most capacity entries and reporting
// to occ. A capacity of zero or less yields a nil cache, on which Get
// and Add are no-ops.
func NewLRU[V any](capacity int, occ Occupancy) *LRU[V] {
	if capacity <= 0 {
		return nil
	}
	return &LRU[V]{bound: capacity, occ: occ}
}

// Get returns the cached value and marks it most recently used.
func (c *LRU[V]) Get(key string) (V, bool) {
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

// Add inserts or refreshes key, evicting the least recently used entry
// beyond capacity.
func (c *LRU[V]) Add(key string, val V) {
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
	c.insert(key, val)
}

// GetOrAdd returns the value cached under key, marking it most recently
// used, or else adds and returns fresh(), all under one lock: callers
// racing on a missing key share one value. On a nil cache it returns
// fresh().
func (c *LRU[V]) GetOrAdd(key string, fresh func() V) V {
	if c == nil {
		return fresh()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if i, ok := c.index[key]; ok {
		c.touch(i)
		return c.ents[i].val
	}
	val := fresh()
	c.insert(key, val)
	return val
}

// insert adds the absent key, evicting the least recently used entry
// when the cache is full.
func (c *LRU[V]) insert(key string, val V) {
	if i := int32(len(c.ents)); int(i) < c.bound {
		if len(c.ents) == cap(c.ents) {
			c.grow()
		}
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
		c.occ.dropped.Inc()
	}
	c.occ.retained.Set(int64(len(c.ents)))
}

// grow doubles the room for entries, up to the bound, and rebuilds the
// index with as much.
func (c *LRU[V]) grow() {
	n := min(max(2*cap(c.ents), 8), c.bound)
	c.ents = append(make([]lruEntry[V], 0, n), c.ents...)
	c.index = make(map[string]int32, n)
	for i, e := range c.ents {
		c.index[e.key] = int32(i)
	}
}

// touch makes entry i the most recently used.
func (c *LRU[V]) touch(i int32) {
	if i == c.head {
		return
	}
	e := &c.ents[i]
	c.ents[e.prev].next, c.ents[e.next].prev = e.next, e.prev
	c.link(i, c.head)
	c.head = i
}

// link puts the unlinked entry i between entry at and its prev.
func (c *LRU[V]) link(i, at int32) {
	prev := c.ents[at].prev
	c.ents[i].prev, c.ents[i].next = prev, at
	c.ents[prev].next, c.ents[at].prev = i, i
}

// Len reports the number of cached entries.
func (c *LRU[V]) Len() int {
	if c == nil {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.ents)
}
