// Package dualsim implements a DualSim-style page-bound enumerator (Kim
// et al., SIGMOD 2016), the disk-based comparison system of Figures 7–8.
//
// DualSim stores each vertex's adjacency list in slotted disk pages and,
// at any moment, holds only a small set of pages in memory, iterating
// "dual" combinations of pages and running the matching against the
// loaded set. Its defining performance property — the one the paper leans
// on when explaining its speedups ("DualSim loads a set of few slotted
// pages from graph at a time ... is able to supply very limited amount of
// workload in a given time") — is that every adjacency access goes
// through a bounded page buffer, and buffer misses cost simulated IO.
//
// We reproduce exactly that property: the data graph's adjacency is
// partitioned into fixed-size pages held behind a PageStore with an LRU
// buffer of configurable capacity; a miss charges IOLatency and counts in
// Stats.PageLoads. The matching logic itself is the same correct
// backtracking all baselines share, so results stay comparable while the
// IO-bound behaviour dominates run time just as in the original system.
package dualsim

import (
	"container/list"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/auto"
	"ceci/internal/baseline"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/stats"
)

// Options extends baseline options with the page model.
type Options struct {
	baseline.Options
	// PageSizeVertices is how many vertices' adjacency share one page
	// (default 64).
	PageSizeVertices int
	// BufferPages caps the in-memory page buffer (default 64 — a few
	// megabytes, true to DualSim's small-memory design point).
	BufferPages int
	// IOLatency is charged per page miss (default 20µs, a fast-SSD read;
	// 0 disables the sleep but still counts loads).
	IOLatency time.Duration
}

func (o *Options) defaults() {
	if o.PageSizeVertices <= 0 {
		o.PageSizeVertices = 64
	}
	if o.BufferPages <= 0 {
		o.BufferPages = 64
	}
	if o.IOLatency < 0 {
		o.IOLatency = 0
	}
}

// ForEach enumerates embeddings of query in data through the page store.
func ForEach(data, query *graph.Graph, opts baseline.Options, fn func(emb []graph.VertexID) bool) error {
	return ForEachOpt(data, query, Options{Options: opts, IOLatency: 20 * time.Microsecond}, fn)
}

// ForEachOpt is ForEach with page-model options.
func ForEachOpt(data, query *graph.Graph, opts Options, fn func(emb []graph.VertexID) bool) error {
	opts.defaults()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		return err
	}
	var cons *auto.Constraints
	if !opts.DisableSymmetryBreaking {
		cons = auto.Compute(query)
	}
	store := NewPageStore(data, opts.PageSizeVertices, opts.BufferPages, opts.IOLatency, opts.Stats)

	// Root candidates (label + degree; degree is page metadata, free).
	var roots []graph.VertexID
	rootLabels := query.Labels(tree.Root)
	rootDeg := query.Degree(tree.Root)
	for _, v := range data.VerticesWithLabel(rootLabels[0]) {
		if data.Degree(v) >= rootDeg && hasAllLabels(data, v, rootLabels) {
			roots = append(roots, v)
		}
	}

	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(roots) {
		workers = len(roots)
	}
	if workers < 1 {
		return nil
	}

	var emitted atomic.Int64
	var stop atomic.Bool
	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			s := &searcher{
				data: data, query: query, tree: tree, cons: cons,
				store: store, fn: fn, limit: opts.Limit,
				emitted: &emitted, stop: &stop,
				emb:     make([]graph.VertexID, query.NumVertices()),
				matched: make([]bool, query.NumVertices()),
				used:    make([]bool, data.NumVertices()),
			}
			for {
				i := cursor.Add(1) - 1
				if i >= int64(len(roots)) || stop.Load() {
					return
				}
				v := roots[i]
				if cons != nil && !cons.Allows(tree.Root, v, s.emb, s.matched) {
					continue
				}
				s.emb[tree.Root] = v
				s.matched[tree.Root] = true
				s.used[v] = true
				ok := s.search(1)
				s.matched[tree.Root] = false
				s.used[v] = false
				if !ok {
					return
				}
			}
		}()
	}
	wg.Wait()
	return nil
}

// Count returns the number of embeddings.
func Count(data, query *graph.Graph, opts Options) (int64, error) {
	var n atomic.Int64
	err := ForEachOpt(data, query, opts, func([]graph.VertexID) bool {
		n.Add(1)
		return true
	})
	return n.Load(), err
}

type searcher struct {
	data, query *graph.Graph
	tree        *order.QueryTree
	cons        *auto.Constraints
	store       *PageStore
	fn          func([]graph.VertexID) bool
	limit       int64
	emitted     *atomic.Int64
	stop        *atomic.Bool
	emb         []graph.VertexID
	matched     []bool
	used        []bool
}

func (s *searcher) emit() bool {
	if s.limit > 0 {
		n := s.emitted.Add(1)
		if n > s.limit {
			s.stop.Store(true)
			return false
		}
		if !s.fn(s.emb) || n == s.limit {
			s.stop.Store(true)
			return false
		}
		return true
	}
	if !s.fn(s.emb) {
		s.stop.Store(true)
		return false
	}
	return true
}

func (s *searcher) search(depth int) bool {
	if depth == len(s.tree.Order) {
		return s.emit()
	}
	u := s.tree.Order[depth]
	up := graph.VertexID(s.tree.Parent[u])
	qLabels := s.query.Labels(u)
	qDeg := s.query.Degree(u)
	for _, v := range s.store.Neighbors(s.emb[up]) {
		if s.used[v] || s.data.Degree(v) < qDeg || !hasAllLabels(s.data, v, qLabels) {
			continue
		}
		if s.cons != nil && !s.cons.Allows(u, v, s.emb, s.matched) {
			continue
		}
		if !s.verifyEdges(u, v) {
			continue
		}
		s.emb[u] = v
		s.matched[u] = true
		s.used[v] = true
		ok := s.search(depth + 1)
		s.matched[u] = false
		s.used[v] = false
		if !ok || s.stop.Load() {
			return false
		}
	}
	return true
}

func (s *searcher) verifyEdges(u graph.VertexID, v graph.VertexID) bool {
	up := graph.VertexID(s.tree.Parent[u])
	for _, w := range s.query.Neighbors(u) {
		if w == up || !s.matched[w] {
			continue
		}
		// Edge probes go through the page store too: this is the IO
		// amplification that bounds DualSim's throughput.
		if !containsSorted(s.store.Neighbors(s.emb[w]), v) {
			return false
		}
	}
	return true
}

func hasAllLabels(g *graph.Graph, v graph.VertexID, labels []graph.Label) bool {
	for _, l := range labels {
		if !g.HasLabel(v, l) {
			return false
		}
	}
	return true
}

func containsSorted(vs []graph.VertexID, x graph.VertexID) bool {
	lo, hi := 0, len(vs)
	for lo < hi {
		mid := (lo + hi) / 2
		if vs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(vs) && vs[lo] == x
}

// PageStore serves adjacency lists page by page with a bounded LRU
// buffer. Misses charge latency and count as page loads.
type PageStore struct {
	g        *graph.Graph
	pageSize int
	capacity int
	latency  time.Duration
	stats    *stats.Counters

	mu      sync.Mutex
	loaded  map[int]*list.Element // pageID -> LRU entry
	lru     *list.List            // front = most recent; values are pageIDs
	pending atomic.Int64          // accumulated IO nanos not yet slept
}

// sleepBatch is the granularity at which accumulated IO latency is
// actually slept away: sub-microsecond per-miss sleeps are rounded up
// wildly by the OS timer, so charges are batched to stay accurate.
const sleepBatch = 200 * time.Microsecond

// NewPageStore wraps g in a paged accessor.
func NewPageStore(g *graph.Graph, pageSize, capacity int, latency time.Duration, st *stats.Counters) *PageStore {
	return &PageStore{
		g:        g,
		pageSize: pageSize,
		capacity: capacity,
		latency:  latency,
		stats:    st,
		loaded:   make(map[int]*list.Element),
		lru:      list.New(),
	}
}

// Neighbors returns v's adjacency after ensuring its page is resident.
func (p *PageStore) Neighbors(v graph.VertexID) []graph.VertexID {
	p.touch(int(v) / p.pageSize)
	return p.g.Neighbors(v)
}

func (p *PageStore) touch(page int) {
	p.mu.Lock()
	if el, ok := p.loaded[page]; ok {
		p.lru.MoveToFront(el)
		p.mu.Unlock()
		return
	}
	// Miss: evict if full, then "load".
	if p.lru.Len() >= p.capacity {
		back := p.lru.Back()
		p.lru.Remove(back)
		delete(p.loaded, back.Value.(int))
	}
	p.loaded[page] = p.lru.PushFront(page)
	p.mu.Unlock()

	if p.stats != nil {
		p.stats.PageLoads.Add(1)
	}
	if p.latency > 0 {
		pending := p.pending.Add(int64(p.latency))
		if pending >= int64(sleepBatch) && p.pending.CompareAndSwap(pending, 0) {
			time.Sleep(time.Duration(pending))
		}
	}
}
