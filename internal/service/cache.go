package service

import (
	"container/list"
	"sync"

	"d2m"
)

// ResultCache is a bounded LRU of completed single-run results, keyed
// by the content address of the request (sched.CacheKey). A replicated
// request is answered from its seed runs' entries. A Result is
// a few hundred bytes of counters, so even the default capacity is
// cheap; the bound exists so a seed-sweeping client cannot grow the
// server without limit. A single-process server consults it at
// admission; the cluster gateway keeps one of its own, seeded from
// the shards' merged journals and fed by every result it relays.
type ResultCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used; values are *cacheEntry
	byKey map[string]*list.Element
}

type cacheEntry struct {
	key string
	res d2m.Result
}

// NewResultCache returns an empty cache holding at most capacity
// results.
func NewResultCache(capacity int) *ResultCache {
	return &ResultCache{
		cap:   capacity,
		order: list.New(),
		byKey: make(map[string]*list.Element),
	}
}

// Get returns the cached result for key and refreshes its recency.
func (c *ResultCache) Get(key string) (d2m.Result, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return d2m.Result{}, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*cacheEntry).res, true
}

// Put stores a result, evicting the least recently used entry when the
// cache is full.
func (c *ResultCache) Put(key string, res d2m.Result) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		el.Value.(*cacheEntry).res = res
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.byKey, oldest.Value.(*cacheEntry).key)
	}
}

// Len reports the number of cached results.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.order.Len()
}
