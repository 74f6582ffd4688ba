package service

import (
	"container/list"
	"sync"

	"d2m"
)

// ResultCache is a bounded LRU of completed simulation results, keyed
// by the content address of the request (sched.CacheKey). A Result is
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
	rep *d2m.Replicated // non-nil for replicated jobs
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

// Get returns the cached result for key (plus the replicate aggregate
// for replicated jobs) and refreshes its recency.
func (c *ResultCache) Get(key string) (d2m.Result, *d2m.Replicated, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.byKey[key]
	if !ok {
		return d2m.Result{}, nil, false
	}
	c.order.MoveToFront(el)
	ent := el.Value.(*cacheEntry)
	return ent.res, ent.rep, true
}

// Put stores a result, evicting the least recently used entry when the
// cache is full. rep is nil for single-run jobs.
func (c *ResultCache) Put(key string, res d2m.Result, rep *d2m.Replicated) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.byKey[key]; ok {
		ent := el.Value.(*cacheEntry)
		ent.res, ent.rep = res, rep
		c.order.MoveToFront(el)
		return
	}
	c.byKey[key] = c.order.PushFront(&cacheEntry{key: key, res: res, rep: rep})
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
