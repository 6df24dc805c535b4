// Package service implements a long-running query engine over one
// resident data graph: a canonical-key LRU cache of built CECI indexes,
// admission control (bounded queue + worker semaphore + per-request
// deadlines), and an HTTP JSON API.
//
// The design follows directly from the paper's cost split: index
// construction (Section 3) is the per-query fixed cost — O(|E(g)|)
// traversal plus refinement — while enumeration (Section 4) is the
// variable cost. A server answering many queries against one data graph
// amortizes the fixed cost by caching built indexes keyed by query
// isomorphism class, so a repeated (or merely relabeled) query skips
// straight to enumeration.
package service

import (
	"container/list"
	"sync"

	icec "ceci/internal/ceci"
)

// entry is one cached index: the CECI of a query class's canonical form
// (verify.CanonicalGraph numbering, so embeddings read off ix are indexed
// by canonical position whichever twin asked) and the bytes it is charged
// at. Nothing changes after the entry is built; elem belongs to the cache
// that holds it.
type entry struct {
	key   string
	ix    *icec.Index
	bytes int64
	elem  *list.Element
}

// CacheStats is a point-in-time snapshot of cache behavior, exposed at
// /cachez and as ceci_cache_* gauges.
type CacheStats struct {
	Entries     int   `json:"entries"`
	UsedBytes   int64 `json:"used_bytes"`
	BudgetBytes int64 `json:"budget_bytes"`
	Hits        int64 `json:"hits"`
	Misses      int64 `json:"misses"`
	Evictions   int64 `json:"evictions"`
	Rejected    int64 `json:"rejected"` // entries larger than the whole budget
}

// cache is an LRU over built indexes with a byte budget charged against
// Index.PhysicalBytes (the measured footprint of the index columns), not
// an entry count: one huge query must not pin the budget worth of small
// ones.
type cache struct {
	mu     sync.Mutex
	budget int64
	used   int64
	lru    *list.List // front = most recently used; values are *entry
	byKey  map[string]*entry

	hits, misses, evictions, rejected int64
}

func newCache(budget int64) *cache {
	return &cache{budget: budget, lru: list.New(), byKey: make(map[string]*entry)}
}

// get returns the entry for key, promoting it to most-recently-used.
func (c *cache) get(key string) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e, true
}

// add inserts e, evicting least-recently-used entries until the budget
// holds. An entry larger than the entire budget is not cached at all
// (the query still runs; it just pays the build every time). Re-adding
// an existing key keeps the incumbent — concurrent builders may race
// here and the first insert wins.
func (c *cache) add(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.byKey[e.key]; ok {
		return
	}
	if e.bytes > c.budget {
		c.rejected++
		return
	}
	for c.used+e.bytes > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		victim := back.Value.(*entry)
		c.lru.Remove(back)
		delete(c.byKey, victim.key)
		c.used -= victim.bytes
		c.evictions++
	}
	e.elem = c.lru.PushFront(e)
	c.byKey[e.key] = e
	c.used += e.bytes
}

// stats snapshots the counters.
func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:     len(c.byKey),
		UsedBytes:   c.used,
		BudgetBytes: c.budget,
		Hits:        c.hits,
		Misses:      c.misses,
		Evictions:   c.evictions,
		Rejected:    c.rejected,
	}
}
