package obs

import (
	"fmt"
	"runtime"
	"sync"
	"testing"
)

func TestLRUEvictionOrder(t *testing.T) {
	c := NewLRU[int](3, Occupancy{})
	c.Add("a", 1)
	c.Add("b", 2)
	c.Add("c", 3)
	if n := c.Len(); n != 3 {
		t.Fatalf("len = %d, want 3", n)
	}
	// d pushes out a (the least recently used).
	c.Add("d", 4)
	if n := c.Len(); n != 3 {
		t.Fatalf("len = %d, want 3 after eviction", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived eviction")
	}
	for _, k := range []string{"b", "c", "d"} {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%s missing", k)
		}
	}
}

func TestLRUGetRefreshesRecency(t *testing.T) {
	c := NewLRU[int](2, Occupancy{})
	c.Add("a", 1)
	c.Add("b", 2)
	// Touch a: b becomes the eviction victim.
	if v, ok := c.Get("a"); !ok || v != 1 {
		t.Fatalf("get(a) = %d, %v", v, ok)
	}
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although a was more recently used")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted although recently used")
	}
}

func TestLRUAddRefreshesRecencyAndValue(t *testing.T) {
	c := NewLRU[int](2, Occupancy{})
	c.Add("a", 1)
	c.Add("b", 2)
	// Re-adding a updates its value and makes b the victim.
	c.Add("a", 10)
	c.Add("c", 3)
	if _, ok := c.Get("b"); ok {
		t.Fatal("b survived although a was re-added")
	}
	if v, ok := c.Get("a"); !ok || v != 10 {
		t.Fatalf("get(a) = %d, %v, want 10, true", v, ok)
	}
}

func TestLRUCapacityOne(t *testing.T) {
	c := NewLRU[string](1, Occupancy{})
	c.Add("a", "x")
	c.Add("b", "y")
	if n := c.Len(); n != 1 {
		t.Fatalf("len = %d, want 1", n)
	}
	if _, ok := c.Get("a"); ok {
		t.Fatal("a survived in a capacity-1 cache")
	}
	if v, ok := c.Get("b"); !ok || v != "y" {
		t.Fatalf("get(b) = %q, %v", v, ok)
	}
}

// A capacity of zero or less disables the cache: the nil receiver is
// safe for every method and caches nothing.
func TestLRUNilDisabled(t *testing.T) {
	for _, capacity := range []int{0, -1} {
		c := NewLRU[int](capacity, Occupancy{})
		if c != nil {
			t.Fatalf("NewLRU(%d) != nil", capacity)
		}
		c.Add("a", 1)
		if _, ok := c.Get("a"); ok {
			t.Fatal("nil cache returned a hit")
		}
		if n := c.Len(); n != 0 {
			t.Fatalf("nil cache len = %d", n)
		}
		if v := c.GetOrAdd("a", func() int { return 2 }); v != 2 {
			t.Fatalf("nil cache GetOrAdd = %d, want the fresh value 2", v)
		}
	}
}

// TestNewLRUCostsNothingPerBound: an LRU makes room for its entries and
// its index as they arrive, so one holding a few keys costs the same at
// any larger bound. An index presized for the bound cost 13 656 B at
// 256 entries and 218 482 B at 4 096 (amd64).
func TestNewLRUCostsNothingPerBound(t *testing.T) {
	keys := []string{"a", "b", "c", "d", "e"}
	bytes := func(capacity, held int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 100 {
			lruSink = NewLRU[int](capacity, Occupancy{})
			for _, k := range keys[:held] {
				lruSink.Add(k, 1)
			}
		}
		runtime.ReadMemStats(&after)
		return (after.TotalAlloc - before.TotalAlloc) / 100
	}
	for _, held := range []int{0, len(keys)} {
		if small, large := bytes(8, held), bytes(4096, held); large > small+64 || large > 1024 {
			t.Errorf("an LRU holding %d keys allocates %d B at bound 4096 and %d B at bound 8; want about the same, at most 1 KB", held, large, small)
		}
	}
}

var lruSink *LRU[int]

// Concurrent gets and adds must be race-free (run under -race) and
// never grow the cache beyond capacity.
func TestLRUConcurrent(t *testing.T) {
	const capacity = 8
	c := NewLRU[int](capacity, Occupancy{})
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				k := fmt.Sprintf("k%d", (g*7+i)%32)
				if v, ok := c.Get(k); ok && v < 0 {
					t.Errorf("get(%s) = %d", k, v)
				}
				c.Add(k, i)
			}
		}(g)
	}
	wg.Wait()
	if n := c.Len(); n > capacity {
		t.Fatalf("len = %d, beyond capacity %d", n, capacity)
	}
}
