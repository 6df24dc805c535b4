// Package order implements the preprocessing stage of Section 2.2:
// selecting the root query vertex, building the BFS query tree (tree
// edges vs non-tree edges), and choosing a matching (visit) order.
//
// Every matching order produced here is tree-consistent: a vertex never
// precedes its query-tree parent, which is the invariant the CECI index
// and enumerator rely on.
//
// All order construction is deterministic: heuristic ties break to the
// smallest vertex ID (see orderFor), so the same (data, query, options)
// triple yields the same order on every platform.
package order

import (
	"errors"
	"fmt"

	"ceci/internal/graph"
)

// Heuristic selects how the matching order is derived from the query tree.
type Heuristic int

const (
	// BFSOrder is the plain BFS traversal order used by the paper's
	// running examples.
	BFSOrder Heuristic = iota
	// LeastFrequent picks, among vertices whose parent is already placed,
	// the one with the fewest data-graph candidates (QuickSI-style).
	LeastFrequent
	// PathRanked approximates TurboIso's candidate-path ordering: it
	// scores each available vertex by candidate count divided by degree,
	// preferring selective, well-connected vertices.
	PathRanked
	// EdgeRanked approximates GpSM-style edge ranking: available vertices
	// are scored by the minimum selectivity of an edge connecting them to
	// the placed prefix.
	EdgeRanked
)

// Heuristics lists every static matching-order heuristic, BFSOrder (the
// default) first.
func Heuristics() []Heuristic {
	return []Heuristic{BFSOrder, LeastFrequent, PathRanked, EdgeRanked}
}

func (h Heuristic) String() string {
	switch h {
	case BFSOrder:
		return "bfs"
	case LeastFrequent:
		return "least-frequent"
	case PathRanked:
		return "path-ranked"
	case EdgeRanked:
		return "edge-ranked"
	default:
		return fmt.Sprintf("heuristic(%d)", int(h))
	}
}

// NoParent marks the root's parent slot.
const NoParent = int32(-1)

// QueryTree is the preprocessed query: root, BFS tree, matching order, and
// the tree / non-tree edge classification.
type QueryTree struct {
	Query *graph.Graph
	Root  graph.VertexID

	// Order is the matching order; Order[0] == Root. Pos inverts it.
	Order []graph.VertexID
	Pos   []int

	// Parent[u] is u's parent in the BFS query tree (NoParent for root).
	Parent []int32
	// Children[u] lists u's tree children.
	Children [][]graph.VertexID
	// Depth[u] is the BFS depth (root = 0).
	Depth []int32

	// NTEParents[u] lists the non-tree neighbors of u that precede u in
	// the matching order (u is the NTE "child"); NTEChildren is the
	// reverse direction. Together they cover every non-tree edge once in
	// each direction.
	NTEParents  [][]graph.VertexID
	NTEChildren [][]graph.VertexID

	// CandCount[u] is the number of data vertices passing the label /
	// degree / NLC filters for u, computed during root selection and
	// reused by order heuristics.
	CandCount []int

	// filter holds the verdict tables CandCount was counted from, for the
	// index build to reuse (see Filter). Nil on a tree detached with
	// WithFilter(nil).
	filter *Filter
}

// NumVertices returns the query size.
func (t *QueryTree) NumVertices() int { return t.Query.NumVertices() }

// TreeEdgeCount and NTECount report the split of query edges.
func (t *QueryTree) TreeEdgeCount() int { return t.NumVertices() - 1 }

// NTECount returns the number of non-tree edges.
func (t *QueryTree) NTECount() int {
	n := 0
	for _, l := range t.NTEParents {
		n += len(l)
	}
	return n
}

// Options configures preprocessing.
type Options struct {
	// ForcedRoot, when >= 0, overrides cost-based root selection (used by
	// tests reproducing the paper's running example and by ablations).
	ForcedRoot int
	// Heuristic selects the matching order (default BFSOrder).
	Heuristic Heuristic
}

// DefaultOptions returns the paper's defaults.
func DefaultOptions() Options { return Options{ForcedRoot: -1, Heuristic: BFSOrder} }

// Preprocess validates the query, selects the root, builds the BFS tree,
// and derives the matching order.
func Preprocess(data, query *graph.Graph, opt Options) (*QueryTree, error) {
	n := query.NumVertices()
	if n == 0 {
		return nil, errors.New("order: empty query")
	}
	if !connected(query) {
		return nil, errors.New("order: query graph must be connected")
	}

	filter := NewFilter(data, query)

	var root graph.VertexID
	if opt.ForcedRoot >= 0 {
		if opt.ForcedRoot >= n {
			return nil, fmt.Errorf("order: forced root %d out of range", opt.ForcedRoot)
		}
		root = graph.VertexID(opt.ForcedRoot)
	} else {
		root = selectRoot(query, filter.counts)
	}

	t := &QueryTree{
		Query:       query,
		Root:        root,
		Parent:      make([]int32, n),
		Children:    make([][]graph.VertexID, n),
		Depth:       make([]int32, n),
		NTEParents:  make([][]graph.VertexID, n),
		NTEChildren: make([][]graph.VertexID, n),
		CandCount:   filter.counts,
		filter:      filter,
	}
	t.buildBFSTree()
	if err := t.buildOrder(opt.Heuristic); err != nil {
		return nil, err
	}
	t.classifyNonTreeEdges()
	return t, nil
}

// selectRoot implements the paper's cost function
// argmin_u |candidates(u)| / degree(u), with candidate counts from the
// label+degree+NLC filters (Section 2.2). Ties break to the smaller ID.
func selectRoot(query *graph.Graph, counts []int) graph.VertexID {
	best := graph.VertexID(0)
	bestCost := float64(1 << 62)
	for u := 0; u < query.NumVertices(); u++ {
		deg := query.Degree(graph.VertexID(u))
		if deg == 0 {
			continue
		}
		cost := float64(counts[u]) / float64(deg)
		if cost < bestCost {
			bestCost = cost
			best = graph.VertexID(u)
		}
	}
	return best
}

func (t *QueryTree) buildBFSTree() {
	n := t.NumVertices()
	for u := range t.Parent {
		t.Parent[u] = NoParent
		t.Depth[u] = -1
	}
	queue := make([]graph.VertexID, 0, n)
	queue = append(queue, t.Root)
	t.Depth[t.Root] = 0
	visited := make([]bool, n)
	visited[t.Root] = true
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		for _, w := range t.Query.Neighbors(u) {
			if !visited[w] {
				visited[w] = true
				t.Parent[w] = int32(u)
				t.Depth[w] = t.Depth[u] + 1
				t.Children[u] = append(t.Children[u], w)
				queue = append(queue, w)
			}
		}
	}
}

// buildOrder produces a tree-consistent matching order under the chosen
// heuristic and fills Order/Pos.
func (t *QueryTree) buildOrder(h Heuristic) error {
	ord, err := t.orderFor(h)
	if err != nil {
		return err
	}
	t.Order = ord
	t.Pos = make([]int, len(ord))
	for i, u := range ord {
		t.Pos[u] = i
	}
	return nil
}

// orderFor computes a matching order under h. BFS order falls out of a
// plain queue; the others greedily select among "available" vertices
// (tree parent already placed).
//
// Tie-breaking is explicitly deterministic: at every selection step the
// strictly smallest score wins, and equal scores break to the smallest
// vertex ID, so two vertices with identical heuristic scores are ordered
// the same way on every platform.
func (t *QueryTree) orderFor(h Heuristic) ([]graph.VertexID, error) {
	n := t.NumVertices()
	ord := make([]graph.VertexID, 0, n)

	if h == BFSOrder {
		// Stable BFS: children in ascending ID order (Neighbors is sorted).
		queue := []graph.VertexID{t.Root}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			ord = append(ord, u)
			queue = append(queue, t.Children[u]...)
		}
		if len(ord) != n {
			return nil, errors.New("order: BFS did not reach all query vertices")
		}
		return ord, nil
	}

	placed := make([]bool, n)
	available := []graph.VertexID{t.Root}
	score := func(u graph.VertexID) float64 {
		switch h {
		case LeastFrequent:
			return float64(t.CandCount[u])
		case PathRanked:
			return float64(t.CandCount[u]) / float64(t.Query.Degree(u))
		case EdgeRanked:
			// Minimum product-of-candidate-counts over edges into the
			// placed prefix; the root has no placed neighbor yet.
			best := float64(1 << 62)
			for _, w := range t.Query.Neighbors(u) {
				if placed[w] {
					s := float64(t.CandCount[u]) * float64(t.CandCount[w])
					if s < best {
						best = s
					}
				}
			}
			if best == float64(1<<62) {
				best = float64(t.CandCount[u])
			}
			return best
		default:
			return float64(u)
		}
	}
	for len(available) > 0 {
		// Explicit min-selection: smallest score, ties to smallest ID.
		bi := 0
		bs := score(available[0])
		for i := 1; i < len(available); i++ {
			s := score(available[i])
			if s < bs || (s == bs && available[i] < available[bi]) {
				bi, bs = i, s
			}
		}
		u := available[bi]
		available = append(available[:bi], available[bi+1:]...)
		placed[u] = true
		ord = append(ord, u)
		available = append(available, t.Children[u]...)
	}
	if len(ord) != n {
		return nil, errors.New("order: heuristic order did not place all vertices")
	}
	return ord, nil
}

// classifyNonTreeEdges assigns each non-tree edge a direction: the
// endpoint earlier in the matching order is the NTE parent.
func (t *QueryTree) classifyNonTreeEdges() {
	t.Query.Edges(func(a, b graph.VertexID) bool {
		if t.Parent[a] == int32(b) || t.Parent[b] == int32(a) {
			return true // tree edge
		}
		p, c := a, b
		if t.Pos[p] > t.Pos[c] {
			p, c = c, p
		}
		t.NTEParents[c] = append(t.NTEParents[c], p)
		t.NTEChildren[p] = append(t.NTEChildren[p], c)
		return true
	})
}

func connected(g *graph.Graph) bool {
	n := g.NumVertices()
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := []graph.VertexID{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// Anchor returns the query vertex with minimum eccentricity (the graph
// center) and that eccentricity, breaking ties toward the lowest vertex
// ID. Sharded serving forces this vertex as the root of every shard's
// index: any embedding mapping Anchor to data vertex v lies entirely
// within data-graph distance ecc of v, so a shard holding v's
// ecc-radius halo finds the whole embedding locally. The query must be
// connected (callers run Preprocess first, which validates that).
func Anchor(query *graph.Graph) (graph.VertexID, int) {
	n := query.NumVertices()
	best, bestEcc := graph.VertexID(0), n // ecc < n always for connected graphs
	dist := make([]int, n)
	queue := make([]graph.VertexID, 0, n)
	for s := 0; s < n; s++ {
		for i := range dist {
			dist[i] = -1
		}
		queue = queue[:0]
		queue = append(queue, graph.VertexID(s))
		dist[s] = 0
		ecc := 0
		for len(queue) > 0 {
			v := queue[0]
			queue = queue[1:]
			if dist[v] > ecc {
				ecc = dist[v]
			}
			for _, w := range query.Neighbors(v) {
				if dist[w] < 0 {
					dist[w] = dist[v] + 1
					queue = append(queue, w)
				}
			}
		}
		if ecc < bestEcc {
			best, bestEcc = graph.VertexID(s), ecc
		}
	}
	return best, bestEcc
}
