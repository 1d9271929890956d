package core

import (
	"fmt"
	"sync"
	"testing"

	"cosm/internal/obs"
	"cosm/internal/typemgr"
)

func TestLRUEvictionOrder(t *testing.T) {
	c := newLRU[int](3, cacheMetrics{})
	c.add("a", 1)
	c.add("b", 2)
	c.add("c", 3)
	if n := c.len(); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	// d pushes out a (the least recently used).
	c.add("d", 4)
	if n := c.len(); n != 3 {
		t.Fatalf("len = %d, want 3 after eviction", n)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived eviction")
	}
	for _, k := range []string{"b", "c", "d"} {
		if _, ok := c.get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	c := newLRU[int](2, cacheMetrics{})
	c.add("a", 1)
	c.add("b", 2)
	// Touch a: b becomes the eviction victim.
	if v, ok := c.get("a"); !ok || v != 1 {
		t.Fatalf("get(a) = %d, %v", v, ok)
	}
	c.add("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived although a was more recently used")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted although recently used")
	}
}

func TestLRUAddRefreshesRecencyAndValue(t *testing.T) {
	c := newLRU[int](2, cacheMetrics{})
	c.add("a", 1)
	c.add("b", 2)
	// Re-adding a updates its value and makes b the victim.
	c.add("a", 10)
	c.add("c", 3)
	if _, ok := c.get("b"); ok {
		t.Fatal("b survived although a was re-added")
	}
	if v, ok := c.get("a"); !ok || v != 10 {
		t.Fatalf("get(a) = %d, %v, want 10, true", v, ok)
	}
}

func TestLRUCapacityOne(t *testing.T) {
	c := newLRU[string](1, cacheMetrics{})
	c.add("a", "x")
	c.add("b", "y")
	if n := c.len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
	if _, ok := c.get("a"); ok {
		t.Fatal("a survived in a capacity-1 cache")
	}
	if v, ok := c.get("b"); !ok || v != "y" {
		t.Fatalf("get(b) = %q, %v", v, ok)
	}
}

// A capacity of zero or less disables the cache: the nil receiver is
// safe for every method and caches nothing.
func TestLRUNilDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := newLRU[int](capacity, cacheMetrics{})
		if c != nil {
			t.Fatalf("newLRU(%d) != nil", capacity)
		}
		c.add("a", 1)
		if _, ok := c.get("a"); ok {
			t.Fatal("nil cache returned a hit")
		}
		if n := c.len(); n != 0 {
			t.Fatalf("nil cache len = %d", n)
		}
	}
}

// TestCacheMetricsReportOccupancyAndEvictions: each of the state's
// two LRUs reports what it holds and what it dropped, and an add that
// evicts allocates nothing for the reporting.
func TestCacheMetricsReportOccupancyAndEvictions(t *testing.T) {
	reg := obs.NewRegistry()
	s := New(typemgr.NewRepo(), Options{Metrics: reg, ConstraintCacheSize: 4})
	s.Apply(&Mutation{Op: OpExport, Offers: []*Offer{offer("o1", "A", 1, 10, 0)}})
	const imports = 30
	for i := 0; i < imports; i++ {
		mustImport(t, s, "A", fmt.Sprintf("Price < %d", i), "", nil, t0)
	}
	for cache, want := range map[string][2]int64{
		"resolution": {1, 0},
		"constraint": {4, imports - 4},
	} {
		retained := reg.Gauge("cosm_trader_"+cache+"_cache_retained", "").Value()
		evicted := reg.Counter("cosm_trader_"+cache+"_cache_evicted_total", "").Value()
		if retained != want[0] || int64(evicted) != want[1] {
			t.Errorf("%s cache: retained %d, evicted %d; want %d and %d", cache, retained, evicted, want[0], want[1])
		}
	}

	keys := make([]string, 64)
	for i := range keys {
		keys[i] = fmt.Sprintf("k%d", i)
	}
	evictingAdds := func(m cacheMetrics) float64 {
		c, i := newLRU[int](2, m), 0
		return testing.AllocsPerRun(200, func() { c.add(keys[i%len(keys)], i); i++ })
	}
	if bare, reported := evictingAdds(cacheMetrics{}), evictingAdds(newCacheMetrics(reg, "test", "Entries")); reported != bare {
		t.Fatalf("an evicting add allocates %.1f times reporting, %.1f without", reported, bare)
	}
}

// Concurrent gets and adds must be race-free (run under -race) and
// never grow the cache beyond capacity.
func TestLRUConcurrent(t *testing.T) {
	const capacity = 8
	c := newLRU[int](capacity, cacheMetrics{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%32)
				if v, ok := c.get(k); ok && v < 0 {
					t.Errorf("get(%s) = %d", k, v)
				}
				c.add(k, i)
			}
		}(g)
	}
	wg.Wait()
	if n := c.len(); n > capacity {
		t.Fatalf("len = %d, beyond capacity %d", n, capacity)
	}
}
