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

// NLCReq is an NLC signature compiled for Graph.NLCCovers: the labels
// below 32 required once, and those required at least twice, as two masks
// the test compares with a data vertex's run head, and a residual
// signature — labels from 32 up, and counts above two — looked up run by
// run. A count above two also sets its label's twos bit, so the masks
// reject what they can before any run is read.
type NLCReq struct {
	ones, twos uint32
	rest       NLCSignature
}

// CompileNLC compiles the requirement sig for Graph.NLCCovers.
func CompileNLC(sig NLCSignature) NLCReq {
	var req NLCReq
	for j, l := range sig.Labels {
		c := sig.Counts[j]
		if l < 32 {
			if c <= 1 {
				req.ones |= 1 << l
			} else {
				req.twos |= 1 << l
			}
			if c <= 2 {
				continue
			}
		}
		req.rest.Labels = append(req.rest.Labels, l)
		req.rest.Counts = append(req.rest.Counts, c)
	}
	return req
}

// NLCCovers reports whether data vertex v's neighborhood-label-count
// signature covers the compiled requirement req — count_v(l) >= the
// count required of every label l — without materializing the signature.
// The label-grouped adjacency already holds the counts: every neighbor
// carrying l appears exactly once in v's run for l (a multi-labeled
// neighbor once per label, which is how NLCOf counts it too), so the run's
// length is count_v(l). v's run head says which labels below 32 it has at
// least once and at least twice, so those requirements are two mask tests,
// and v's runs are read only for req's residual. On single-label graphs
// every neighbor carries label 0 and the test is a degree comparison. Safe
// for concurrent callers.
func (g *Graph) NLCCovers(v VertexID, req NLCReq) bool {
	if g.numLabels <= 1 && !g.MultiLabeled() {
		// The run head v would have: one run, of label 0, degree long.
		var h runHead
		deg := int32(g.Degree(v))
		if deg > 0 {
			h.low = 1
		}
		if deg > 1 {
			h.twos = 1
		}
		if req.ones&^h.low|req.twos&^h.twos != 0 {
			return false
		}
		for j, l := range req.rest.Labels {
			if l != 0 || req.rest.Counts[j] > deg {
				return false
			}
		}
		return true
	}
	g.ladj.build(g)
	la := &g.ladj
	if h := la.heads[v]; req.ones&^h.low|req.twos&^h.twos != 0 {
		return false
	}
	for j, l := range req.rest.Labels {
		i, ok := g.findRun(v, l)
		if r := la.runs[i]; !ok || r.end-r.off < req.rest.Counts[j] {
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
