package cluster

import (
	"fmt"
	"testing"
	"testing/quick"
)

// newCache returns an empty cache, as a server's kit arms its own.
func newCache(capacity, ttl float64) *ContentCache {
	c := new(ContentCache)
	c.rearm(capacity, ttl)
	return c
}

func TestCacheHitAndMiss(t *testing.T) {
	c := newCache(1<<20, 60)
	if c.Has("a", 0) {
		t.Error("empty cache should miss")
	}
	c.Put("a", 1000, 0)
	if !c.Has("a", 1) {
		t.Error("want hit")
	}
	if len(c.entries) != 1 || c.used != 1000 {
		t.Errorf("len=%d used=%v", len(c.entries), c.used)
	}
}

func TestCacheTTLExpiry(t *testing.T) {
	c := newCache(1<<20, 10)
	c.Put("a", 100, 0)
	if !c.Has("a", 9) {
		t.Error("should still be fresh at t=9")
	}
	// The t=9 hit refreshed recency; expires 10s after that.
	if !c.Has("a", 18) {
		t.Error("recency refresh should keep it alive")
	}
	if c.Has("a", 40) {
		t.Error("should have expired")
	}
	if len(c.entries) != 0 {
		t.Errorf("expired entry should be evicted, len=%d", len(c.entries))
	}
}

func TestCacheLRUEviction(t *testing.T) {
	c := newCache(300, 1000)
	c.Put("a", 100, 0)
	c.Put("b", 100, 1)
	c.Put("c", 100, 2)
	c.Has("a", 3) // refresh a; b is now LRU
	c.Put("d", 100, 4)
	if c.Has("b", 5) {
		t.Error("b should have been evicted as LRU")
	}
	for _, k := range []string{"a", "c", "d"} {
		if !c.Has(k, 5) {
			t.Errorf("%s should remain", k)
		}
	}
}

func TestCacheOversizedEntryRejected(t *testing.T) {
	c := newCache(100, 10)
	c.Put("big", 1000, 0)
	if c.Has("big", 1) || len(c.entries) != 0 {
		t.Error("entry larger than capacity must not be admitted")
	}
}

func TestCacheReplaceRefreshesSize(t *testing.T) {
	c := newCache(1000, 100)
	c.Put("a", 600, 0)
	c.Put("a", 200, 1) // replace with smaller
	if c.used != 200 {
		t.Errorf("used = %v, want 200", c.used)
	}
	c.Put("b", 700, 2) // fits alongside the replacement
	if !c.Has("a", 3) || !c.Has("b", 3) {
		t.Error("both entries should fit after replacement")
	}
}

func TestCachePanicsOnBadConfig(t *testing.T) {
	for i, fn := range []func(){
		func() { newCache(0, 1) },
		func() { newCache(1, 0) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: want panic", i)
				}
			}()
			fn()
		}()
	}
}

// Property: used bytes never exceed capacity and always equal the sum of
// the live entries.
func TestCachePropertyCapacityInvariant(t *testing.T) {
	f := func(sizes []uint16) bool {
		c := newCache(10000, 1000)
		for i, sz := range sizes {
			c.Put(fmt.Sprintf("k%d", i%8), float64(sz), float64(i))
			if c.used > 10000 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
