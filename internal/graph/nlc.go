package graph

import "slices"

// NLCSignature is a neighborhood-label-count signature: how many neighbors
// of a vertex carry each label. Query-side signatures count every label of
// every neighbor; a data vertex v satisfies the NLC filter for query vertex
// u iff count_v(l) >= count_u(l) for every label l in u's neighborhood
// (Section 3.2 of the paper).
//
// Signatures are stored sparsely as parallel label/count slices sorted by
// label, keeping the per-vertex cost proportional to distinct neighbor
// labels rather than the alphabet size.
type NLCSignature struct {
	Labels []Label
	Counts []int32
}

// Covers reports whether sig has at least the count required by req for
// every label in req. Both signatures must be sorted by label.
func (sig NLCSignature) Covers(req NLCSignature) bool {
	i := 0
	for j := range req.Labels {
		for i < len(sig.Labels) && sig.Labels[i] < req.Labels[j] {
			i++
		}
		if i == len(sig.Labels) || sig.Labels[i] != req.Labels[j] || sig.Counts[i] < req.Counts[j] {
			return false
		}
	}
	return true
}

// NLCCovers reports whether data vertex v's neighborhood-label-count
// signature covers req — count_v(l) >= req's count for every label l of
// req — without materializing the signature. The label-grouped adjacency
// already holds the counts: every neighbor carrying l appears exactly
// once in v's run for l (a multi-labeled neighbor once per label, which
// is how NLCOf counts it too), so the run's length is count_v(l). On
// single-label graphs every neighbor carries label 0 and the test is a
// degree comparison. A run is never empty, so a count of one asks only
// that v have the run — for a label below 32, one bit of v's run head, and
// v's runs are not read. Safe for concurrent callers.
func (g *Graph) NLCCovers(v VertexID, req NLCSignature) bool {
	if g.numLabels <= 1 && len(g.extra) == 0 {
		for j, l := range req.Labels {
			if l != 0 || int(req.Counts[j]) > g.Degree(v) {
				return false
			}
		}
		return true
	}
	g.ladj.build(g)
	la := &g.ladj
	for j, l := range req.Labels {
		i, ok := la.find(v, l)
		if !ok || req.Counts[j] > 1 && la.runs[i+1].off-la.runs[i].off < req.Counts[j] {
			return false
		}
	}
	return true
}

// NLCOf computes the signature of vertex v of g: gather the labels of
// every neighbor, sort, run-length encode. Query vertices are few, so
// nothing is cached; data vertices are tested with Graph.NLCCovers, which
// needs no signature.
func NLCOf(g *Graph, v VertexID) NLCSignature {
	var labels []Label
	for _, w := range g.Neighbors(v) {
		labels = append(labels, g.Labels(w)...)
	}
	slices.Sort(labels)
	var sig NLCSignature
	for i, l := range labels {
		if i == 0 || l != labels[i-1] {
			sig.Labels = append(sig.Labels, l)
			sig.Counts = append(sig.Counts, 0)
		}
		sig.Counts[len(sig.Counts)-1]++
	}
	return sig
}
