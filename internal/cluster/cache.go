package cluster

// ContentCache models the host page cache's effect on repeated block
// reads: when a task reads a block that a colocated task recently read,
// the data comes from memory, not the shared disk. This is the mechanism
// that makes Dolly-style job cloning affordable in practice — a clone's
// input re-reads mostly hit the cache of the replica holder — and it is
// why the paper's fio experiments explicitly disable host caching to get
// stable interference (§II).
//
// The cache is keyed by opaque content ids (e.g. "file/b007"), tracks
// bytes for capacity-based LRU eviction, and expires entries after a TTL
// (dirty/cold pages get recycled on a busy host).
type ContentCache struct {
	capacity float64
	ttl      float64
	used     float64
	entries  map[string]*cacheEntry
}

type cacheEntry struct {
	bytes    float64
	lastUsed float64
}

// rearm makes c an empty cache with the given capacity (bytes) and entry
// TTL (seconds), keeping the storage of its entry map.
func (c *ContentCache) rearm(capacity, ttl float64) {
	if capacity <= 0 || ttl <= 0 {
		panic("cluster: cache needs positive capacity and ttl")
	}
	entries := c.entries
	if entries == nil {
		entries = make(map[string]*cacheEntry)
	}
	clear(entries)
	*c = ContentCache{capacity: capacity, ttl: ttl, entries: entries}
}

// Has reports whether key is cached and fresh at nowSec, refreshing its
// recency on a hit.
func (c *ContentCache) Has(key string, nowSec float64) bool {
	e, ok := c.entries[key]
	if !ok {
		return false
	}
	if nowSec-e.lastUsed > c.ttl {
		c.used -= e.bytes
		delete(c.entries, key)
		return false
	}
	e.lastUsed = nowSec
	return true
}

// Put inserts (or refreshes) a key, evicting least-recently-used entries
// until the new entry fits. Entries larger than the whole cache are
// not admitted.
func (c *ContentCache) Put(key string, bytes, nowSec float64) {
	if bytes > c.capacity {
		return
	}
	if e, ok := c.entries[key]; ok {
		c.used -= e.bytes
		delete(c.entries, key)
	}
	for c.used+bytes > c.capacity {
		c.evictLRU()
	}
	c.entries[key] = &cacheEntry{bytes: bytes, lastUsed: nowSec}
	c.used += bytes
}

// evictLRU removes the least-recently-used entry (deterministically
// tie-broken by key).
func (c *ContentCache) evictLRU() {
	// One pass over the map picks the same victim the old sort-then-scan
	// did: the smallest key among entries with the minimum lastUsed.
	var victim string
	oldest := 0.0
	first := true
	for k, e := range c.entries {
		if first || e.lastUsed < oldest || (e.lastUsed == oldest && k < victim) {
			victim, oldest, first = k, e.lastUsed, false
		}
	}
	if victim == "" {
		return
	}
	c.used -= c.entries[victim].bytes
	delete(c.entries, victim)
}
