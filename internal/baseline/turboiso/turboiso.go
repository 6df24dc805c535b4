// Package turboiso implements a TurboIso-style matcher (Han et al.,
// SIGMOD 2013), compared against in Figure 10.
//
// Faithful characteristics:
//
//   - NEC (neighborhood equivalence class) compression of the query,
//     realized through the shared symmetry-breaking classes;
//   - per-start-vertex candidate regions: for each candidate of the root,
//     the data graph is explored along the query tree to collect a local
//     candidate region (CR), and enumeration happens region by region —
//     this serial region-at-a-time processing is what the paper's §6.4
//     notes "saves memory by serializing the auxiliary data creation and
//     verification";
//   - a locally optimized matching order per region, ranked by candidate
//     count (TurboIso's candidate-size ordering);
//   - non-tree edges verified by adjacency probes.
//
// The Boosted variant (BoostIso's data-side grouping) is approximated by
// deduplicating region exploration across data vertices with identical
// (label, degree, adjacency) signatures; enable with Options.Boosted.
package turboiso

import (
	"sort"

	"ceci/internal/auto"
	"ceci/internal/baseline"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/stats"
)

// Options extends the baseline options with the Boosted toggle.
type Options struct {
	baseline.Options
	// Boosted enables data-side vertex-equivalence grouping, the
	// BoostIso speedup applied on top of TurboIso.
	Boosted bool
}

// ForEach enumerates embeddings of query in data, serially (TurboIso is
// the single-threaded comparison point in the paper's Figure 10).
func ForEach(data, query *graph.Graph, opts baseline.Options, fn func(emb []graph.VertexID) bool) error {
	return ForEachOpt(data, query, Options{Options: opts}, fn)
}

// ForEachOpt is ForEach with TurboIso-specific options.
func ForEachOpt(data, query *graph.Graph, opts Options, fn func(emb []graph.VertexID) bool) error {
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		return err
	}
	var cons *auto.Constraints
	if !opts.DisableSymmetryBreaking {
		cons = auto.Compute(query)
	}

	// Root candidates via label/degree/NLC (TurboIso's start-vertex
	// selection uses the same |cand|/degree ranking CECI adopted).
	roots := tree.Filter(data).Candidates(tree.Root)

	s := &searcher{
		data: data, tree: tree, cons: cons, fn: fn,
		limit:   opts.Limit,
		emb:     make([]graph.VertexID, query.NumVertices()),
		matched: make([]bool, query.NumVertices()),
		used:    make([]bool, data.NumVertices()),
		stats:   opts.Stats,
	}
	defer s.flush()

	var boost *boostGroups
	if opts.Boosted {
		boost = groupEquivalent(data, roots)
	}

	for _, v := range roots {
		if boost != nil && boost.skip(v) {
			continue
		}
		cr := exploreRegion(data, tree, v)
		if cr == nil {
			continue
		}
		localOrder := regionOrder(tree, cr)
		reps := []graph.VertexID{v}
		if boost != nil {
			reps = boost.members(v)
		}
		for _, pivot := range reps {
			if cons != nil && !cons.Allows(tree.Root, pivot, s.emb, s.matched) {
				continue
			}
			s.cr = cr
			s.order = localOrder
			s.emb[tree.Root] = pivot
			s.matched[tree.Root] = true
			s.used[pivot] = true
			ok := s.search(1)
			s.matched[tree.Root] = false
			s.used[pivot] = false
			if !ok {
				return nil
			}
		}
	}
	return nil
}

// Count returns the number of embeddings.
func Count(data, query *graph.Graph, opts Options) (int64, error) {
	var n int64
	err := ForEachOpt(data, query, opts, func([]graph.VertexID) bool {
		n++
		return true
	})
	return n, err
}

// region holds per-query-vertex candidate lists local to one start
// vertex: cr[u][parentCand] = sorted candidates of u under parentCand.
type region struct {
	te    []map[graph.VertexID][]graph.VertexID
	sizes []int // total candidates per query vertex, for order ranking
}

// exploreRegion walks the query tree from pivot, collecting the candidate
// region. Returns nil when some query vertex has no candidate (region
// pruned, TurboIso's early stop).
func exploreRegion(data *graph.Graph, tree *order.QueryTree, pivot graph.VertexID) *region {
	n := tree.NumVertices()
	cr := &region{
		te:    make([]map[graph.VertexID][]graph.VertexID, n),
		sizes: make([]int, n),
	}
	for u := range cr.te {
		cr.te[u] = make(map[graph.VertexID][]graph.VertexID)
	}
	frontier := map[graph.VertexID][]graph.VertexID{}
	frontier[tree.Root] = []graph.VertexID{pivot}
	cr.sizes[tree.Root] = 1
	for _, u := range tree.Order[1:] {
		up := graph.VertexID(tree.Parent[u])
		qLabels := tree.Query.Labels(u)
		qDeg := tree.Query.Degree(u)
		seen := map[graph.VertexID]bool{}
		for _, vp := range frontier[up] {
			var vals []graph.VertexID
			for _, v := range data.Neighbors(vp) {
				if data.Degree(v) < qDeg {
					continue
				}
				ok := true
				for _, l := range qLabels {
					if !data.HasLabel(v, l) {
						ok = false
						break
					}
				}
				if ok {
					vals = append(vals, v)
					seen[v] = true
				}
			}
			if len(vals) > 0 {
				cr.te[u][vp] = vals
			}
		}
		if len(seen) == 0 {
			return nil
		}
		lst := make([]graph.VertexID, 0, len(seen))
		for v := range seen {
			lst = append(lst, v)
		}
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		frontier[u] = lst
		cr.sizes[u] = len(lst)
	}
	return cr
}

// regionOrder ranks the non-root query vertices by local candidate count
// (most selective first), constrained to parent-before-child.
func regionOrder(tree *order.QueryTree, cr *region) []graph.VertexID {
	out := make([]graph.VertexID, 0, tree.NumVertices())
	out = append(out, tree.Root)
	avail := append([]graph.VertexID(nil), tree.Children[tree.Root]...)
	for len(avail) > 0 {
		sort.Slice(avail, func(i, j int) bool {
			si, sj := cr.sizes[avail[i]], cr.sizes[avail[j]]
			if si != sj {
				return si < sj
			}
			return avail[i] < avail[j]
		})
		u := avail[0]
		avail = avail[1:]
		out = append(out, u)
		avail = append(avail, tree.Children[u]...)
	}
	return out
}

type searcher struct {
	data    *graph.Graph
	tree    *order.QueryTree
	cons    *auto.Constraints
	cr      *region
	order   []graph.VertexID
	fn      func([]graph.VertexID) bool
	limit   int64
	emitted int64
	emb     []graph.VertexID
	matched []bool
	used    []bool
	stats   *stats.Counters

	recursiveCalls int64
	verifications  int64
}

func (s *searcher) search(depth int) bool {
	if depth == len(s.order) {
		s.emitted++
		if !s.fn(s.emb) {
			return false
		}
		return s.limit == 0 || s.emitted < s.limit
	}
	u := s.order[depth]
	s.recursiveCalls++
	up := graph.VertexID(s.tree.Parent[u])
	for _, v := range s.cr.te[u][s.emb[up]] {
		if s.used[v] {
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
		if !ok {
			return false
		}
	}
	return true
}

// verifyEdges probes every non-tree query edge from u into the matched
// prefix. The local matching order may place NTE neighbors after u, so
// only matched ones are checked here; the remaining ones are checked when
// those vertices are assigned.
func (s *searcher) verifyEdges(u graph.VertexID, v graph.VertexID) bool {
	up := graph.VertexID(s.tree.Parent[u])
	for _, w := range s.tree.Query.Neighbors(u) {
		// The tree edge to the parent is guaranteed by region expansion,
		// and children cannot be matched yet (parent-before-child order);
		// everything else matched is a non-tree edge to probe.
		if w == up || !s.matched[w] {
			continue
		}
		s.verifications++
		if !s.data.HasEdge(s.emb[w], v) {
			return false
		}
	}
	return true
}

func (s *searcher) flush() {
	s.stats.AddRecursive(s.recursiveCalls)
	s.stats.AddEdgeVerifications(s.verifications)
}

// boostGroups clusters root candidates with identical label, degree, and
// adjacency — BoostIso's SEC (syntactic equivalence class) idea applied
// at the start-vertex level: one region exploration serves all members.
type boostGroups struct {
	rep   map[graph.VertexID]graph.VertexID
	byRep map[graph.VertexID][]graph.VertexID
}

func groupEquivalent(data *graph.Graph, roots []graph.VertexID) *boostGroups {
	g := &boostGroups{
		rep:   make(map[graph.VertexID]graph.VertexID, len(roots)),
		byRep: make(map[graph.VertexID][]graph.VertexID),
	}
	// Exact adjacency keys (not hashes): a collision here would merge
	// vertices with different regions and corrupt results.
	bySig := map[string]graph.VertexID{}
	var key []byte
	for _, v := range roots {
		key = key[:0]
		l := data.Label(v)
		key = append(key, byte(l), byte(l>>8), byte(l>>16), byte(l>>24))
		for _, w := range data.Neighbors(v) {
			key = append(key, byte(w), byte(w>>8), byte(w>>16), byte(w>>24))
		}
		k := string(key)
		r, ok := bySig[k]
		if !ok {
			bySig[k] = v
			r = v
		}
		g.rep[v] = r
		g.byRep[r] = append(g.byRep[r], v)
	}
	return g
}

// skip reports whether v's region is handled by another representative.
func (g *boostGroups) skip(v graph.VertexID) bool { return g.rep[v] != v }

// members returns all candidates sharing v's region.
func (g *boostGroups) members(v graph.VertexID) []graph.VertexID { return g.byRep[v] }
