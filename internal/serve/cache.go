package serve

import (
	"container/list"
	"sync"

	"rahtm"
)

// cache is the content-addressed result store: a bounded LRU keyed by
// Request.Key, the same structural fingerprint the pipeline's sibling-reuse
// cache keys on — identical subproblems across requests hit here the way
// identical siblings do within a run. Only complete (non-degraded) results
// are stored, so equal keys always mean equal mappings regardless of the
// deadlines the producing requests ran under.
type cache struct {
	mu    sync.Mutex
	max   int
	ll    *list.List // front = most recently used
	items map[string]*list.Element
}

type cacheEntry struct {
	key string
	res *rahtm.Result
}

// newCache returns an LRU holding at most max results; max <= 0 disables
// caching (every lookup misses, every store is dropped).
func newCache(max int) *cache {
	return &cache{max: max, ll: list.New(), items: make(map[string]*list.Element)}
}

// get returns an independent copy of the cached result for key, so callers
// (and the JSON encoder) can annotate it without racing other hits.
func (c *cache) get(key string) (*rahtm.Result, bool) {
	if c.max <= 0 {
		return nil, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.ll.MoveToFront(el)
	return cloneResult(el.Value.(*cacheEntry).res), true
}

// put stores an independent copy of res under key, evicting the least
// recently used entry beyond capacity.
func (c *cache) put(key string, res *rahtm.Result) {
	if c.max <= 0 {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*cacheEntry).res = cloneResult(res)
		c.ll.MoveToFront(el)
		return
	}
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, res: cloneResult(res)})
	for c.ll.Len() > c.max {
		el := c.ll.Back()
		c.ll.Remove(el)
		delete(c.items, el.Value.(*cacheEntry).key)
	}
}

// len returns the number of cached results.
func (c *cache) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// cloneResult copies the serializable parts of a Result. Detail (the full
// pipeline output) is dropped: it is not part of the wire format, so a
// cache entry need not keep its node mapping and per-node task index
// alive. The copy's Mapping is its own, not Detail's ProcToNode.
func cloneResult(r *rahtm.Result) *rahtm.Result {
	out := *r
	out.Mapping = append(rahtm.Mapping(nil), r.Mapping...)
	if r.Stats != nil {
		stats := *r.Stats
		out.Stats = &stats
	}
	out.Detail = nil
	// A cached result is served under many requests: strip the producing
	// solve's identity and counter attribution so every hit carries its
	// own trace ID (stamped by the handler) and no stale metrics.
	out.TraceID = ""
	out.Metrics = nil
	return &out
}
