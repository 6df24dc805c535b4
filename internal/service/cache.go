// Package service implements a long-running query engine over one
// resident data graph: a canonical-key cache of built CECI indexes under a
// byte budget, evicted by size and frequency (GreedyDual-Size-Frequency),
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
	"container/heap"
	"math"
	"sync"

	icec "ceci/internal/ceci"
)

// entry is one cached index: the CECI of a query class's canonical form
// (verify.CanonicalGraph numbering, so embeddings read off ix are indexed
// by canonical position whichever twin asked) over a prefix of the class's
// ascending pivot list, and the bytes it is charged at (entryBytes).
// covered is the watermark: how many of the class's root candidates have
// their cluster in ix, everyPivot once all of them do. A request is
// answered from an entry that is complete or that yields the embeddings it
// needs; one that comes up short builds the next wider entry, which
// replaces this one. Those four are set by whoever builds the entry and
// never change.
//
// The rest is the holding cache's, under its lock: uses counts the insert
// and every get that returned the entry, rank is its eviction priority
// (cache.rerank), seq the order it was inserted in and at its slot on the
// cache's heap.
type entry struct {
	key     string
	ix      *icec.Index
	bytes   int64
	covered int

	uses int64
	rank float64
	seq  uint64
	at   int
}

// entryBytes is what the budget is charged for an entry of key over ix: the
// index columns (PhysicalBytes, exact) plus the heap the entry pins beside
// them — the key, the canonical query graph and its QueryTree, and the
// per-query-vertex and per-slot headers of the index, a CandMap per tree
// and non-tree edge. The three constants are fitted to runtime.ReadMemStats
// over paths, cycles and cliques of 3-8 vertices (within 1.3 %, EXPERIMENTS
// §PR 27) and held within 0.5x-2x of the measured heap by
// TestEntryChargeCoversHeap. Never zero, so a class whose index came out
// empty still costs the budget what it holds.
func entryBytes(key string, ix *icec.Index) int64 {
	q := ix.Tree.Query
	const fixed, perVertex, perEdge = 960, 256, 88
	return ix.PhysicalBytes() + int64(len(key)) +
		fixed + perVertex*int64(q.NumVertices()) + perEdge*int64(q.NumEdges())
}

// everyPivot is the coverage of a complete entry, whatever the class's
// number of root candidates.
const everyPivot = math.MaxInt

// CacheStats is a point-in-time snapshot of cache behavior, exposed at
// /cachez and as ceci_cache_* gauges.
type CacheStats struct {
	Entries      int   `json:"entries"`
	UsedBytes    int64 `json:"used_bytes"`
	BudgetBytes  int64 `json:"budget_bytes"`
	Hits         int64 `json:"hits"`
	Misses       int64 `json:"misses"`
	Evictions    int64 `json:"evictions"`
	EvictedBytes int64 `json:"evicted_bytes"` // sum of the evicted entries' bytes
	Rejected     int64 `json:"rejected"`      // entries larger than the whole budget
	Grown        int64 `json:"grown"`         // entries replaced by a wider one of their class
}

// cache holds built indexes under a byte budget charged per entry
// (entryBytes), not an entry count, and when the budget is full evicts the
// entry a byte of which buys the fewest hits — GreedyDual-Size-Frequency:
//
//	rank = floor + uses × budget / bytes
//
// budget/bytes is how many of this entry would fill the budget (≥ 1 for
// anything admitted), so a 25 KB index asked for once ranks with a 350 KB
// one asked for fourteen times; floor is the rank of the last entry
// evicted, added to every rank computed afterwards, so an entry that was
// popular once and is no longer asked for is overtaken by newcomers and
// leaves. The victim is the minimum of byRank; equal ranks go oldest
// insert first, which with equal sizes and equal uses is the order a
// recency list gives, and makes eviction a pure function of the sequence
// of add and get calls.
type cache struct {
	mu     sync.Mutex
	budget int64
	used   int64 // == Σ bytes of the entries held
	floor  float64
	seq    uint64
	byRank rankHeap // every held entry, once; byRank[i].at == i
	byKey  map[string]*entry

	hits, misses, evictions, evictedBytes, rejected, grown int64
}

// rankHeap is a container/heap of entries, minimum (rank, seq) at the root.
type rankHeap []*entry

func (h rankHeap) Len() int { return len(h) }
func (h rankHeap) Less(i, j int) bool {
	if h[i].rank != h[j].rank {
		return h[i].rank < h[j].rank
	}
	return h[i].seq < h[j].seq
}
func (h rankHeap) Swap(i, j int) {
	h[i], h[j] = h[j], h[i]
	h[i].at, h[j].at = i, j
}
func (h *rankHeap) Push(x any) {
	e := x.(*entry)
	e.at = len(*h)
	*h = append(*h, e)
}
func (h *rankHeap) Pop() any {
	old := *h
	e := old[len(old)-1]
	old[len(old)-1] = nil
	*h = old[:len(old)-1]
	return e
}

func newCache(budget int64) *cache {
	return &cache{budget: budget, byKey: make(map[string]*entry)}
}

// rerank sets e's rank from its uses and the floor as it stands.
func (c *cache) rerank(e *entry) {
	e.rank = c.floor + float64(e.uses)*float64(c.budget)/float64(e.bytes)
}

// get returns the entry for key when it covers atLeast so many root
// candidates, counting the use. A narrower one is a miss and no use: it
// cannot answer the caller.
func (c *cache) get(key string, atLeast int) (*entry, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	e, ok := c.byKey[key]
	if !ok || e.covered < atLeast {
		c.misses++
		return nil, false
	}
	c.hits++
	e.uses++
	c.rerank(e)
	heap.Fix(&c.byRank, e.at)
	return e, true
}

// add inserts e, evicting lowest-ranked entries until the budget holds. An
// entry larger than the entire budget is not cached at all (the query
// still runs; it just pays the build every time). Over an incumbent of its
// key, e goes in only when it covers more: the incumbent's bytes are
// released, its uses carried over — the class is as popular as it was —
// and e's bytes charged like any other insert's. Otherwise the incumbent
// stays — concurrent builders may race here and the first insert wins.
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
	e.uses = 1
	if replaces {
		e.uses += old.uses
		c.remove(old)
		c.grown++
	}
	for c.used+e.bytes > c.budget {
		victim := c.byRank[0]
		c.floor = victim.rank
		c.remove(victim)
		c.evictions++
		c.evictedBytes += victim.bytes
	}
	c.seq++
	e.seq = c.seq
	c.rerank(e)
	heap.Push(&c.byRank, e)
	c.byKey[e.key] = e
	c.used += e.bytes
}

// remove takes e out of the cache and releases its bytes.
func (c *cache) remove(e *entry) {
	heap.Remove(&c.byRank, e.at)
	delete(c.byKey, e.key)
	c.used -= e.bytes
}

// stats snapshots the counters.
func (c *cache) stats() CacheStats {
	c.mu.Lock()
	defer c.mu.Unlock()
	return CacheStats{
		Entries:      len(c.byKey),
		UsedBytes:    c.used,
		BudgetBytes:  c.budget,
		Hits:         c.hits,
		Misses:       c.misses,
		Evictions:    c.evictions,
		EvictedBytes: c.evictedBytes,
		Rejected:     c.rejected,
		Grown:        c.grown,
	}
}
