package plan

import (
	"fmt"
	"math"
	"sort"

	"ceci/internal/graph"
	"ceci/internal/order"
)

// GreedyName is the candidate name of the model-driven greedy order
// (every other candidate is named after its order.Heuristic).
const GreedyName = "greedy"

// Calibration ratio clamps: a single noisy depth cannot swing an
// estimate by more than this factor in either direction.
const (
	calibMin = 1.0 / 64
	calibMax = 64.0
)

// DepthEst is the model's expectation at one matching-order position.
type DepthEst struct {
	// Vertex is the query vertex visited at this position.
	Vertex int `json:"vertex"`
	// Calls is the expected number of CandidatesFor lookups (partial
	// embeddings reaching this depth).
	Calls float64 `json:"calls"`
	// ListLen is the expected summed input-list length per lookup — the
	// Lemma-2 merge cost of one intersection.
	ListLen float64 `json:"list_len"`
	// Out is the expected candidates emitted per lookup.
	Out float64 `json:"out"`
}

// Candidate is one scored candidate order.
type Candidate struct {
	Name     string           `json:"name"`
	Order    []graph.VertexID `json:"order"`
	Cost     float64          `json:"cost"`
	PerDepth []DepthEst       `json:"-"`
}

// Decision records one planning pass: the chosen order with its
// estimate and per-depth expectations, plus every candidate considered
// (deduplicated; identical orders keep the first name in the fixed
// evaluation sequence bfs, least-frequent, path-ranked, edge-ranked,
// greedy).
type Decision struct {
	Chosen     string           `json:"chosen"`
	Order      []graph.VertexID `json:"order"`
	Estimate   float64          `json:"estimate"`
	PerDepth   []DepthEst       `json:"per_depth,omitempty"`
	Candidates []Candidate      `json:"candidates"`
	// Tree is the base tree reordered to the chosen order, ready for
	// index construction.
	Tree *order.QueryTree `json:"-"`
}

// EstimateOrder scores one tree-consistent order under the model,
// optionally adjusted by per-vertex calibration ratios (calib[u]
// multiplies u's expected output; nil or zero entries mean 1).
func (p *Planner) EstimateOrder(name string, ord []graph.VertexID, calib []float64) Candidate {
	n := len(ord)
	pos := make([]int, n)
	for i, u := range ord {
		pos[u] = i
	}
	per := make([]DepthEst, n)
	// Depth 0: root candidates come straight off the index (one work
	// unit per pivot), no intersection — charge the scan.
	partials := p.feat.candCount[ord[0]]
	cost := partials
	per[0] = DepthEst{Vertex: int(ord[0]), Calls: 1, Out: partials}
	sels := make([]edgeSel, 0, 8)
	stable := make([]edgeSel, 0, 8)
	for d := 1; d < n; d++ {
		u := ord[d]
		cu := p.feat.candCount[u]
		listLen, volLen := 0.0, 0.0
		minStable := math.Inf(1)
		sels, stable = sels[:0], stable[:0]
		for _, w := range p.base.Query.Neighbors(u) {
			if pos[w] >= d {
				continue
			}
			l := p.listLen(w, u)
			listLen += l
			if cu > 0 {
				sels = append(sels, edgeSel{w, l / cu})
			}
			if pos[w] == d-1 {
				volLen += l
			} else {
				if l < minStable {
					minStable = l
				}
				if cu > 0 {
					stable = append(stable, edgeSel{w, l / cu})
				}
			}
		}
		out := 0.0
		if cu > 0 {
			out = cu * p.selProduct(sels)
		}
		if c := calibAt(calib, u); c != 1 {
			out *= c
			if out > cu && cu > 0 {
				out = cu
			}
		}
		per[d] = DepthEst{Vertex: int(u), Calls: partials, ListLen: listLen, Out: out}

		// Merge-cost accounting mirrors two enumerator mechanisms the
		// raw Lemma-2 sum is blind to:
		//
		//   - The sibling-loop cache (internal/ceci/matches.go): lists
		//     keyed by parents placed before position d-1 are stable
		//     across the innermost sibling loop and merged once per
		//     sibling group (the partials of length d-1), while a list
		//     keyed by the parent at exactly d-1 is volatile and
		//     re-merged against the cached stable result on every
		//     lookup. This is what makes the model prefer orders that
		//     place a vertex's parents early: they enumerate out of the
		//     cache instead of re-intersecting per sibling.
		//   - The adaptive kernels (internal/setops): a merge's cost
		//     tracks its shorter input (galloping), not the summed
		//     lengths, so each merge is charged the minimum of its
		//     inputs.
		//
		// A single backward edge is a plain candidate-list walk — no
		// intersection at all — so it is charged only its output.
		groups := partials
		if d >= 2 {
			groups = per[d-1].Calls
		}
		switch {
		case len(sels) <= 1:
			cost += partials * out
		case volLen == 0:
			// All lists stable: one merge per sibling group, cached
			// result reused by every lookup in the group.
			cost += groups*minStable + partials*out
		default:
			stableOut := volLen
			if len(stable) > 0 {
				stableOut = cu * p.selProduct(stable)
				if len(stable) >= 2 {
					cost += groups * minStable
				}
			}
			cost += partials * (math.Min(stableOut, volLen) + out)
		}
		partials *= out
	}
	return Candidate{Name: name, Order: ord, Cost: cost, PerDepth: per}
}

// edgeSel is one backward edge's selectivity: the constraining placed
// neighbor and its list-length / candidate-count ratio.
type edgeSel struct {
	w graph.VertexID
	s float64
}

// selProduct combines per-edge selectivities into one thinning factor.
// A pure independence product over-thins vertices constrained by
// several backward edges, for two distinct reasons, each with a
// standard cardinality-estimator correction:
//
//   - Generic correlation: neighbor constraints are never independent,
//     so each extra edge removes fewer candidates than the last.
//     Correction: exponential backoff — factors capped at 1 (an edge
//     cannot grow the candidate set), sorted most-selective-first, the
//     k-th damped to s^(1/2^k).
//   - Transitive correlation: when two constraining neighbors are
//     themselves adjacent in the query, their candidate lists are the
//     neighborhoods of adjacent data vertices — on clustered graphs
//     those overlap so strongly that the weaker constraint removes
//     almost nothing beyond the stronger one. Correction: treat them
//     as fully correlated — a factor whose neighbor is query-adjacent
//     to an already-counted neighbor contributes nothing. (This is
//     what makes the model stop underpricing orders that defer the
//     closing vertex of a triangle.)
func (p *Planner) selProduct(sels []edgeSel) float64 {
	for i := range sels {
		if sels[i].s > 1 {
			sels[i].s = 1
		}
	}
	sort.Slice(sels, func(i, j int) bool { return sels[i].s < sels[j].s })
	prod, exp := 1.0, 1.0
	for i, e := range sels {
		correlated := false
		for _, prev := range sels[:i] {
			if p.base.Query.HasEdge(e.w, prev.w) {
				correlated = true
				break
			}
		}
		if correlated {
			continue
		}
		prod *= math.Pow(e.s, exp)
		exp /= 2
	}
	return prod
}

func calibAt(calib []float64, u graph.VertexID) float64 {
	if calib == nil || int(u) >= len(calib) || calib[u] <= 0 {
		return 1
	}
	return calib[u]
}

// greedyOrder builds a tree-consistent order by repeatedly selecting,
// among vertices whose tree parent is placed, the one with the smallest
// expected output under the current prefix (ties: smaller merge cost,
// then smaller vertex ID) — growth-factor-first, the classic min-cost
// greedy.
func (p *Planner) greedyOrder() []graph.VertexID {
	t := p.base
	n := t.NumVertices()
	placed := make([]bool, n)
	ord := make([]graph.VertexID, 0, n)
	ord = append(ord, t.Root)
	placed[t.Root] = true
	available := append([]graph.VertexID(nil), t.Children[t.Root]...)
	sels := make([]edgeSel, 0, 8)
	scoreOf := func(u graph.VertexID) (out, listLen float64) {
		cu := p.feat.candCount[u]
		sels = sels[:0]
		for _, w := range t.Query.Neighbors(u) {
			if !placed[w] {
				continue
			}
			l := p.listLen(w, u)
			listLen += l
			if cu > 0 {
				sels = append(sels, edgeSel{w, l / cu})
			}
		}
		if cu > 0 {
			out = cu * p.selProduct(sels)
		}
		return out, listLen
	}
	for len(available) > 0 {
		bi := 0
		bo, bl := scoreOf(available[0])
		for i := 1; i < len(available); i++ {
			o, l := scoreOf(available[i])
			if o < bo || (o == bo && (l < bl || (l == bl && available[i] < available[bi]))) {
				bi, bo, bl = i, o, l
			}
		}
		u := available[bi]
		available = append(available[:bi], available[bi+1:]...)
		placed[u] = true
		ord = append(ord, u)
		available = append(available, t.Children[u]...)
	}
	return ord
}

// Decide scores every candidate order — the four static heuristics plus
// the greedy min-cost order — and returns the cheapest. Ties break to
// the earliest candidate in the evaluation sequence, so the default
// (BFS) wins when the model cannot separate orders.
func (p *Planner) Decide() (*Decision, error) {
	type named struct {
		name string
		ord  []graph.VertexID
	}
	var orders []named
	for _, h := range order.Heuristics() {
		ord, err := p.base.DeriveOrder(h)
		if err != nil {
			return nil, err
		}
		orders = append(orders, named{h.String(), ord})
	}
	orders = append(orders, named{GreedyName, p.greedyOrder()})

	dec := &Decision{}
	best := -1
	for _, no := range orders {
		if dup(dec.Candidates, no.ord) {
			continue
		}
		c := p.EstimateOrder(no.name, no.ord, nil)
		dec.Candidates = append(dec.Candidates, c)
		if best < 0 || c.Cost < dec.Candidates[best].Cost {
			best = len(dec.Candidates) - 1
		}
	}
	win := dec.Candidates[best]
	dec.Chosen = win.Name
	dec.Order = win.Order
	dec.Estimate = win.Cost
	dec.PerDepth = win.PerDepth

	tree, err := p.base.Reorder(win.Order)
	if err != nil {
		return nil, fmt.Errorf("plan: chosen order invalid: %w", err)
	}
	dec.Tree = tree
	return dec, nil
}

func dup(cands []Candidate, ord []graph.VertexID) bool {
outer:
	for _, c := range cands {
		for i := range ord {
			if c.Order[i] != ord[i] {
				continue outer
			}
		}
		return true
	}
	return false
}

// Calibration folds observed per-depth funnel counts for the decision's
// chosen order into per-vertex output ratios: observed output-per-call
// divided by the model's prediction, clamped to [1/64, 64]. lookups and
// emitted are indexed by matching-order depth; depths never reached (or
// with a zero prediction) keep ratio 1. Returns nil when no depth has
// observations.
func (d *Decision) Calibration(lookups, emitted []int64) []float64 {
	n := len(d.Order)
	if len(lookups) < n || len(emitted) < n {
		return nil
	}
	var calib []float64
	for depth := 1; depth < n; depth++ {
		if lookups[depth] <= 0 {
			continue
		}
		pred := d.PerDepth[depth].Out
		if pred <= 0 {
			// The model predicted a dead depth that is being reached:
			// treat as maximal underestimate.
			pred = calibMin
		}
		obs := float64(emitted[depth]) / float64(lookups[depth])
		r := obs / pred
		if r < calibMin {
			r = calibMin
		}
		if r > calibMax {
			r = calibMax
		}
		if calib == nil {
			calib = make([]float64, n)
			for i := range calib {
				calib[i] = 1
			}
		}
		calib[d.Order[depth]] = r
	}
	return calib
}

// Choose is the one-shot entry point: preprocess, score, decide. The
// returned tree carries the winning order; the decision records every
// estimate for EXPLAIN output.
func Choose(data, query *graph.Graph, opt Options) (*order.QueryTree, *Decision, error) {
	p, err := New(data, query, opt)
	if err != nil {
		return nil, nil, err
	}
	dec, err := p.Decide()
	if err != nil {
		return nil, nil, err
	}
	return dec.Tree, dec, nil
}
