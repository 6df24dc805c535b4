// Package cfl implements a CFLMatch-style matcher (Bi et al., SIGMOD
// 2016), the labeled-graph state of the art the paper compares against in
// Figure 9.
//
// Faithful characteristics:
//
//   - a CPI-like auxiliary structure: per query vertex, tree-edge
//     candidates keyed by the parent's candidates — exactly "CECI minus
//     the NTE lists" — refined by a bottom-up then top-down pass;
//   - non-tree edges verified during enumeration rather than
//     pre-intersected; CFLMatch famously uses an adjacency-matrix
//     representation for O(1) probes, which is why it "failed to run
//     data graphs larger than 500K nodes" (§6.4). We reproduce that
//     limit: graphs above MatrixVertexLimit vertices are rejected with
//     ErrGraphTooLarge.
package cfl

import (
	"errors"
	"fmt"
	"sort"

	"ceci/internal/auto"
	"ceci/internal/baseline"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// MatrixVertexLimit mirrors CFLMatch's adjacency-matrix scalability wall
// (the paper observed failures beyond 500K vertices on a 512 GB server;
// our bit-packed matrix costs n²/8 bytes — 50 MB at the cap — so the cap
// keeps the behaviour while staying laptop-safe).
const MatrixVertexLimit = 20000

// ErrGraphTooLarge reports a data graph beyond the adjacency-matrix cap.
var ErrGraphTooLarge = errors.New("cfl: data graph exceeds adjacency-matrix capacity")

// ForEach enumerates embeddings of query in data. CFLMatch is evaluated
// single-threaded in the paper (§6.2); Workers is accepted but the
// algorithm runs serially regardless, keeping comparisons honest.
func ForEach(data, query *graph.Graph, opts baseline.Options, fn func(emb []graph.VertexID) bool) error {
	if data.NumVertices() > MatrixVertexLimit {
		return fmt.Errorf("%w: %d vertices > %d", ErrGraphTooLarge, data.NumVertices(), MatrixVertexLimit)
	}
	tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: -1, Heuristic: order.PathRanked})
	if err != nil {
		return err
	}
	var cons *auto.Constraints
	if !opts.DisableSymmetryBreaking {
		cons = auto.Compute(query)
	}

	cpi, err := buildCPI(data, tree)
	if err != nil {
		return err
	}
	matrix := newBitMatrix(data)

	s := &searcher{
		data: data, tree: tree, cons: cons, cpi: cpi, matrix: matrix,
		fn:      fn,
		limit:   opts.Limit,
		emb:     make([]graph.VertexID, query.NumVertices()),
		matched: make([]bool, query.NumVertices()),
		used:    make([]bool, data.NumVertices()),
	}
	for _, v := range cpi.cands[tree.Root] {
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
			break
		}
	}
	if opts.Stats != nil {
		opts.Stats.RecursiveCalls.Add(s.recursiveCalls)
		opts.Stats.EdgeVerifications.Add(s.verifications)
	}
	return nil
}

// Count returns the number of embeddings.
func Count(data, query *graph.Graph, opts baseline.Options) (int64, error) {
	return baseline.CountWith(ForEach, data, query, opts)
}

// cpi is the tree-only candidate index.
type cpi struct {
	cands [][]graph.VertexID                    // per query vertex, sorted candidate set
	te    []map[graph.VertexID][]graph.VertexID // te[u][parentCand] = sorted candidates
}

func buildCPI(data *graph.Graph, tree *order.QueryTree) (*cpi, error) {
	n := tree.NumVertices()
	c := &cpi{
		cands: make([][]graph.VertexID, n),
		te:    make([]map[graph.VertexID][]graph.VertexID, n),
	}
	for u := range c.te {
		c.te[u] = make(map[graph.VertexID][]graph.VertexID)
	}
	// Forward (top-down) construction with LDF+NLC filters.
	filter := tree.Filter(data)
	c.cands[tree.Root] = filter.Candidates(tree.Root)
	for _, u := range tree.Order[1:] {
		up := graph.VertexID(tree.Parent[u])
		seen := map[graph.VertexID]bool{}
		verdicts := filter.Verdicts(u)
		for _, vp := range c.cands[up] {
			var vals []graph.VertexID
			for _, v := range data.Neighbors(vp) {
				if verdicts[v] != order.Pass {
					continue
				}
				vals = append(vals, v)
				seen[v] = true
			}
			if len(vals) > 0 {
				c.te[u][vp] = vals
			}
		}
		c.cands[u] = sortedKeys(seen)
	}
	// Backward (bottom-up) refinement: drop parent candidates with an
	// empty child entry.
	for i := n - 1; i >= 1; i-- {
		u := tree.Order[i]
		up := graph.VertexID(tree.Parent[u])
		kept := c.cands[up][:0]
		for _, vp := range c.cands[up] {
			if len(c.te[u][vp]) > 0 {
				kept = append(kept, vp)
			} else {
				delete(c.te[u], vp)
			}
		}
		c.cands[up] = kept
	}
	// Second top-down sweep: restrict child entries to surviving parents.
	for _, u := range tree.Order[1:] {
		up := graph.VertexID(tree.Parent[u])
		live := map[graph.VertexID]bool{}
		for _, vp := range c.cands[up] {
			live[vp] = true
		}
		for vp := range c.te[u] {
			if !live[vp] {
				delete(c.te[u], vp)
			}
		}
	}
	return c, nil
}

func sortedKeys(m map[graph.VertexID]bool) []graph.VertexID {
	out := make([]graph.VertexID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// bitMatrix is the |V|×|V| adjacency matrix CFLMatch uses for O(1) edge
// verification.
type bitMatrix struct {
	n    int
	bits []uint64
}

func newBitMatrix(g *graph.Graph) *bitMatrix {
	n := g.NumVertices()
	m := &bitMatrix{n: n, bits: make([]uint64, (n*n+63)/64)}
	g.Edges(func(u, v graph.VertexID) bool {
		m.set(int(u), int(v))
		m.set(int(v), int(u))
		return true
	})
	return m
}

func (m *bitMatrix) set(i, j int) {
	k := i*m.n + j
	m.bits[k/64] |= 1 << (k % 64)
}

func (m *bitMatrix) has(i, j int) bool {
	k := i*m.n + j
	return m.bits[k/64]&(1<<(k%64)) != 0
}

type searcher struct {
	data    *graph.Graph
	tree    *order.QueryTree
	cons    *auto.Constraints
	cpi     *cpi
	matrix  *bitMatrix
	fn      func([]graph.VertexID) bool
	limit   int64
	emitted int64
	emb     []graph.VertexID
	matched []bool
	used    []bool

	recursiveCalls int64
	verifications  int64
}

func (s *searcher) search(depth int) bool {
	if depth == len(s.tree.Order) {
		s.emitted++
		if !s.fn(s.emb) {
			return false
		}
		return s.limit == 0 || s.emitted < s.limit
	}
	u := s.tree.Order[depth]
	s.recursiveCalls++
	up := graph.VertexID(s.tree.Parent[u])
	for _, v := range s.cpi.te[u][s.emb[up]] {
		if s.used[v] {
			continue
		}
		if s.cons != nil && !s.cons.Allows(u, v, s.emb, s.matched) {
			continue
		}
		// Verify the non-tree edges via the adjacency matrix.
		ok := true
		for _, un := range s.tree.NTEParents[u] {
			s.verifications++
			if !s.matrix.has(int(s.emb[un]), int(v)) {
				ok = false
				break
			}
		}
		if !ok {
			continue
		}
		s.emb[u] = v
		s.matched[u] = true
		s.used[v] = true
		cont := s.search(depth + 1)
		s.matched[u] = false
		s.used[v] = false
		if !cont {
			return false
		}
	}
	return true
}
