package service

import (
	"container/list"
	"sync"
	"sync/atomic"

	"hybridvc/internal/stats"
)

// cacheEntry is one content-addressed result: the byte-exact report (sim
// jobs) or rendered tables (sweep jobs), plus the recorded timeline so a
// cache-served job can still stream its intervals.
type cacheEntry struct {
	reportJSON []byte
	tables     []string
	intervals  []stats.Interval
	// lineage is the lineage ID of the job that produced the result, so
	// cache-served jobs can report their provenance chain.
	lineage string
}

// resultCache is a bounded LRU keyed by the canonical job hash. It is
// the daemon's work amortizer: design-space exploration re-queries the
// same configurations constantly, and a hit serves bytes from memory
// instead of burning a worker on an identical simulation.
type resultCache struct {
	mu      sync.Mutex
	max     int
	entries map[string]*list.Element // key → element whose Value is *lruItem
	order   *list.List               // front = most recently used

	hits   atomic.Uint64
	misses atomic.Uint64
}

type lruItem struct {
	key   string
	entry *cacheEntry
}

// newResultCache builds a cache bounded to max entries (min 1).
func newResultCache(max int) *resultCache {
	if max < 1 {
		max = 1
	}
	return &resultCache{
		max:     max,
		entries: make(map[string]*list.Element),
		order:   list.New(),
	}
}

// get returns the cached entry, promoting it to most recently used.
func (c *resultCache) get(key string) (*cacheEntry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.entries[key]
	if !ok {
		c.misses.Add(1)
		return nil, false
	}
	c.hits.Add(1)
	c.order.MoveToFront(el)
	return el.Value.(*lruItem).entry, true
}

// put stores an entry, evicting the least recently used beyond the bound.
func (c *resultCache) put(key string, e *cacheEntry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.entries[key]; ok {
		el.Value.(*lruItem).entry = e
		c.order.MoveToFront(el)
		return
	}
	c.entries[key] = c.order.PushFront(&lruItem{key: key, entry: e})
	for c.order.Len() > c.max {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.entries, oldest.Value.(*lruItem).key)
	}
}

// len returns the resident entry count.
func (c *resultCache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
