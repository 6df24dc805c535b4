// Package plan implements cost-based matching-order selection: every
// static heuristic's order (internal/order) plus a greedy min-cost
// order are scored by a cardinality model built from cheap
// pre-enumeration statistics, and the cheapest is installed.
//
// The model follows the STwig line of work (cost-driven order selection
// on billion-node graphs) adapted to CECI's intersection enumerator:
// the cost of visiting query vertex u at depth d is the Lemma-2 merge
// cost — the summed lengths of the candidate lists intersected — times
// the expected number of partial embeddings reaching depth d. Expected
// list lengths come from three statistics computed in one pass over
// each query vertex's filtered candidates:
//
//   - cand(u): candidates surviving the label/degree/NLC filters
//     (already computed by order.Preprocess for root selection);
//   - freq(u): data vertices carrying u's primary label;
//   - avgNbr(w→u): the size-biased mean (Σc²/Σc), over candidates x of
//     w, of x's data neighbors carrying u's primary label — size-biased
//     because a partial embedding reaches x through an edge, and x sits
//     on one such edge per relevant neighbor (the friendship paradox).
//
// For a query edge (w, u) with w already matched, the expected length
// of the candidate list keyed by w's assignment is
//
//	L(w→u) = avgNbr(w→u) · cand(u)/freq(u)
//
// (the neighbor count thinned by the fraction of same-labeled vertices
// that survive full filtering). Per-edge selectivities L_i/cand(u) are
// combined with exponential backoff and full correlation for
// query-adjacent constraining neighbors (cost.go: selProduct), expected
// partial embeddings multiply depth over depth, and merge work is
// charged the way the enumerator spends it: stable lists once per
// sibling group, volatile lists per lookup, each merge at the minimum
// of its input lengths (the adaptive kernels gallop). See DESIGN.md §15
// for the full derivation.
//
// The planner is the library's (ceci.Options.Planner, -order auto): it
// wins on exhaustive enumeration and loses where the build or a small
// limit bounds the query, which is why ceciserve does not plan (DESIGN
// §15 has the measurements). After a run, a Decision folds the observed
// per-depth selectivities into calibration ratios and re-prices its
// order; EXPLAIN ANALYZE prints that beside the estimate.
package plan

import (
	"ceci/internal/graph"
	"ceci/internal/order"
)

// Options configures planning.
type Options struct {
	// ForcedRoot, when >= 0, overrides cost-based root selection.
	ForcedRoot int
}

// DefaultOptions returns the defaults (cost-based root).
func DefaultOptions() Options { return Options{ForcedRoot: -1} }

// Planner holds one query's preprocessing result and the statistics the
// cost model needs: every order of the query is priced from these without
// touching the data graph again.
type Planner struct {
	base *order.QueryTree
	feat features
}

// features are the cheap pre-enumeration statistics driving the model.
type features struct {
	candCount []float64   // per query vertex: filtered candidate count
	labelFreq []float64   // per query vertex: |vertices with primary label|
	avgNbr    [][]float64 // avgNbr[w][j]: mean #neighbors of w's candidates labeled like query.Neighbors(w)[j]
}

// New preprocesses query against data (BFS base order; the tree shape
// and candidate counts depend only on the root) and computes the model
// statistics: one pass over each query vertex's filtered candidates,
// the same order of work root selection already does.
func New(data, query *graph.Graph, opt Options) (*Planner, error) {
	base, err := order.Preprocess(data, query, order.Options{
		ForcedRoot: opt.ForcedRoot,
		Heuristic:  order.BFSOrder,
	})
	if err != nil {
		return nil, err
	}
	filter := base.Filter(data)
	n := query.NumVertices()
	f := features{
		candCount: make([]float64, n),
		labelFreq: make([]float64, n),
		avgNbr:    make([][]float64, n),
	}
	for u := 0; u < n; u++ {
		uu := graph.VertexID(u)
		f.candCount[u] = float64(base.CandCount[u])
		f.labelFreq[u] = float64(data.LabelFrequency(query.Labels(uu)[0]))
		nbrs := query.Neighbors(uu)
		row := make([]float64, len(nbrs))
		rowSq := make([]float64, len(nbrs))
		for _, v := range filter.Candidates(uu) {
			for j, w := range nbrs {
				// The run of v's neighbors labeled like w is v's NLC
				// count for that label.
				c := float64(len(data.NeighborsWithLabel(v, query.Label(w))))
				row[j] += c
				rowSq[j] += c * c
			}
		}
		// Size-biased mean Σc²/Σc, not the uniform mean Σc/n: a partial
		// embedding reaches a candidate of u through an edge, and a
		// candidate with c relevant neighbors sits on c such edges — so
		// the conditional expectation of the next list length is
		// edge-weighted (the friendship paradox). On the heavy-tailed
		// degree distributions of the benchmark graphs the uniform mean
		// underestimates fan-out by an order of magnitude.
		for j := range row {
			if row[j] > 0 {
				row[j] = rowSq[j] / row[j]
			}
		}
		f.avgNbr[u] = row
	}
	// base keeps its verdict tables: Reorder shares them with the tree a
	// Decision hands to the build, which reads them instead of filtering
	// the data graph a second time.
	return &Planner{base: base, feat: f}, nil
}

// Base returns the underlying BFS query tree (root, tree structure,
// candidate counts) shared by every candidate order.
func (p *Planner) Base() *order.QueryTree { return p.base }

// listLen returns the expected length of the candidate list for query
// vertex u keyed by an assignment of its already-matched neighbor w:
// the average relevant-label neighbor count thinned by the fraction of
// same-labeled vertices surviving full filtering, clamped to cand(u).
func (p *Planner) listLen(w, u graph.VertexID) float64 {
	var avg float64
	for j, x := range p.base.Query.Neighbors(w) {
		if x == u {
			avg = p.feat.avgNbr[w][j]
			break
		}
	}
	frac := 0.0
	if p.feat.labelFreq[u] > 0 {
		frac = p.feat.candCount[u] / p.feat.labelFreq[u]
	}
	l := avg * frac
	if cu := p.feat.candCount[u]; l > cu {
		l = cu
	}
	return l
}
