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
	"math"
	"sync"

	icec "ceci/internal/ceci"
)

// entry is one cached index: the CECI of a query class's canonical form
// (verify.CanonicalGraph numbering, so embeddings read off ix are indexed
// by canonical position whichever twin asked) over a prefix of the class's
// ascending pivot list, and the bytes it is charged at. covered is the
// watermark: how many of the class's root candidates have their cluster in
// ix, everyPivot once all of them do. A request is answered from an entry
// that is complete or that yields the embeddings it needs; one that comes
// up short builds the next wider entry, which replaces this one. Nothing
// changes after the entry is built; elem belongs to the cache that holds
// it.
type entry struct {
	key     string
	ix      *icec.Index
	bytes   int64
	covered int
	elem    *list.Element
}

// everyPivot is the coverage of a complete entry, whatever the class's
// number of root candidates.
const everyPivot = math.MaxInt

// nextCoverage is the growth rule: how many of a class's total root
// candidates the index built for a request covers, when the request needs
// one covering atLeast so many (1: any will do; more: a narrower one came
// up short, or only a complete one can answer). One cluster, then every
// cluster — on a dense graph clusters overlap after two hops, so the
// first 16 pivots already cost 0.84x a full build and the first 64 0.97x,
// while the first alone costs 0.48x and fills a page of 100 for 90 of 90
// benchmark classes (EXPERIMENTS §PR 26).
func nextCoverage(atLeast, total int) int {
	if atLeast <= 1 {
		return min(1, total)
	}
	return total
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
	Grown       int64 `json:"grown"`    // entries replaced by a wider one of their class
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

	hits, misses, evictions, rejected, grown int64
}

func newCache(budget int64) *cache {
	return &cache{budget: budget, lru: list.New(), byKey: make(map[string]*entry)}
}

// get returns the entry for key when it covers atLeast so many root
// candidates, promoting it to most-recently-used. A narrower one is a
// miss: it cannot answer the caller.
func (c *cache) get(key string, atLeast int) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok || e.covered < atLeast {
		c.misses++
		return nil, false
	}
	c.hits++
	c.lru.MoveToFront(e.elem)
	return e, true
}

// add inserts e, evicting least-recently-used entries until the budget
// holds. An entry larger than the entire budget is not cached at all
// (the query still runs; it just pays the build every time). Over an
// incumbent of its key, e goes in only when it covers more: the incumbent's
// bytes are released and e's charged like any other insert's. Otherwise
// the incumbent stays — concurrent builders may race here and the first
// insert wins.
func (c *cache) add(e *entry) {
	c.mu.Lock()
	defer c.mu.Unlock()
	old, replaces := c.byKey[e.key]
	if replaces && old.covered >= e.covered {
		return
	}
	if e.bytes > c.budget {
		c.rejected++
		return
	}
	if replaces {
		c.remove(old)
		c.grown++
	}
	for c.used+e.bytes > c.budget {
		back := c.lru.Back()
		if back == nil {
			break
		}
		c.remove(back.Value.(*entry))
		c.evictions++
	}
	e.elem = c.lru.PushFront(e)
	c.byKey[e.key] = e
	c.used += e.bytes
}

// remove takes e out of the cache and releases its bytes.
func (c *cache) remove(e *entry) {
	c.lru.Remove(e.elem)
	delete(c.byKey, e.key)
	c.used -= e.bytes
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
		Grown:       c.grown,
	}
}
