package query

import (
	"container/list"
	"sync"
	"sync/atomic"
)

// defaultPlanCacheSize bounds the engine's plan cache. Analytics workloads
// repeat a small set of query shapes (dashboards, rollup polls), so a few
// hundred entries cover the working set while bounding memory.
const defaultPlanCacheSize = 256

// planCache is a bounded LRU of parsed queries keyed on canonicalized
// query text. Cached *Query values are shared between callers and must be
// treated as read-only — execution compiles them into a per-run form
// (eval.go) and StripFinal returns a new Query.
// Parse errors are not cached: they are cheap to reproduce and would
// otherwise evict useful plans.
type planCache struct {
	cap    int
	hits   atomic.Int64
	misses atomic.Int64

	mu sync.Mutex
	ll *list.List // front = most recently used; element value is *planEntry
	m  map[string]*list.Element
}

type planEntry struct {
	key string
	q   *Query
}

func newPlanCache(capacity int) *planCache {
	if capacity <= 0 {
		capacity = defaultPlanCacheSize
	}
	return &planCache{cap: capacity, ll: list.New(), m: make(map[string]*list.Element)}
}

func (c *planCache) get(key string) *Query {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.m[key]
	if !ok {
		c.misses.Add(1)
		return nil
	}
	c.ll.MoveToFront(el)
	c.hits.Add(1)
	return el.Value.(*planEntry).q
}

func (c *planCache) put(key string, q *Query) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.m[key]; ok {
		c.ll.MoveToFront(el)
		el.Value.(*planEntry).q = q
		return
	}
	c.m[key] = c.ll.PushFront(&planEntry{key: key, q: q})
	if c.ll.Len() > c.cap {
		oldest := c.ll.Back()
		c.ll.Remove(oldest)
		delete(c.m, oldest.Value.(*planEntry).key)
	}
}

func (c *planCache) stats() (hits, misses int64, entries int) {
	hits = c.hits.Load()
	misses = c.misses.Load()
	c.mu.Lock()
	entries = c.ll.Len()
	c.mu.Unlock()
	return hits, misses, entries
}

// ParseCached parses src through the engine's plan cache, reporting
// whether the plan was a cache hit. The returned Query is shared — treat
// it as read-only.
func (e *Engine) ParseCached(src string) (*Query, bool, error) {
	if e.cache == nil {
		q, err := Parse(src)
		return q, false, err
	}
	key := canonicalQueryKey(src)
	if q := e.cache.get(key); q != nil {
		return q, true, nil
	}
	q, err := Parse(src)
	if err != nil {
		return nil, false, err
	}
	e.cache.put(key, q)
	return q, false, nil
}

// PlanCacheStats returns the engine's plan-cache counters: cumulative
// hits and misses, and the current entry count.
func (e *Engine) PlanCacheStats() (hits, misses int64, entries int) {
	if e == nil || e.cache == nil {
		return 0, 0, 0
	}
	return e.cache.stats()
}

// canonicalQueryKey collapses insignificant whitespace so queries that
// differ only in layout share one cache entry: runs of whitespace outside
// double-quoted strings become a single space. The text is NOT parsed —
// two queries with genuinely different tokens stay distinct keys.
func canonicalQueryKey(src string) string {
	var b []byte
	inStr := false
	pendingSpace := false
	for i := 0; i < len(src); i++ {
		c := src[i]
		if inStr {
			b = append(b, c)
			if c == '\\' && i+1 < len(src) {
				i++
				b = append(b, src[i])
				continue
			}
			if c == '"' {
				inStr = false
			}
			continue
		}
		switch c {
		case ' ', '\t', '\n', '\r', '\v', '\f':
			pendingSpace = len(b) > 0
			continue
		case '"':
			inStr = true
		}
		if pendingSpace {
			b = append(b, ' ')
			pendingSpace = false
		}
		b = append(b, c)
	}
	return string(b)
}
