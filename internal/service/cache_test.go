package service

import "testing"

func TestResultCacheLRUEviction(t *testing.T) {
	c := newResultCache(2)
	c.put("a", &cacheEntry{reportJSON: []byte("A")})
	c.put("b", &cacheEntry{reportJSON: []byte("B")})
	if _, ok := c.get("a"); !ok { // promote a → b is now LRU
		t.Fatal("a missing before eviction")
	}
	c.put("c", &cacheEntry{reportJSON: []byte("C")})
	if _, ok := c.get("b"); ok {
		t.Error("b survived eviction despite being LRU")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a evicted despite recent use")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c missing")
	}
	if c.len() != 2 {
		t.Errorf("len = %d, want 2", c.len())
	}
	// hits: a, a, c; misses: b (evicted) — get("b") after eviction.
	if h, m := c.hits.Load(), c.misses.Load(); h != 3 || m != 1 {
		t.Errorf("hits/misses = %d/%d, want 3/1", h, m)
	}
}

func TestResultCacheOverwrite(t *testing.T) {
	c := newResultCache(4)
	c.put("k", &cacheEntry{reportJSON: []byte("old")})
	c.put("k", &cacheEntry{reportJSON: []byte("new")})
	e, ok := c.get("k")
	if !ok || string(e.reportJSON) != "new" {
		t.Errorf("get after overwrite = %v, %v", e, ok)
	}
	if c.len() != 1 {
		t.Errorf("len = %d, want 1", c.len())
	}
}
