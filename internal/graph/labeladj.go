package graph

import (
	"sort"
	"sync"
)

// labelAdj is the label-grouped adjacency index (the l2Match-style
// neighboring-label structure): for every vertex, its neighbors regrouped
// by label so that "neighbors of v carrying label l" is one contiguous
// sorted view instead of a filtered scan. Built lazily on first use and
// immutable afterwards.
//
// Layout: groups concatenates, vertex by vertex, the neighbor lists split
// into label runs (sorted by label, IDs ascending within a run).
// runStart[v]..runStart[v+1] index the runs of v in runLabel/runOff;
// runOff has one trailing sentinel so run i spans groups[runOff[i]:runOff[i+1]].
// A multi-labeled neighbor appears once per label it carries.
type labelAdj struct {
	once     sync.Once
	runStart []int32
	runLabel []Label
	runOff   []int32
	groups   []VertexID
}

// NeighborsWithLabel returns the sorted neighbors of v whose label set
// contains l. The result aliases internal storage and must not be
// modified. For single-label graphs it is Neighbors(v) (l == 0) or nil —
// no index is materialized — so unlabeled workloads pay nothing.
func (g *Graph) NeighborsWithLabel(v VertexID, l Label) []VertexID {
	if g.numLabels <= 1 && len(g.extra) == 0 {
		if l == 0 {
			return g.Neighbors(v)
		}
		return nil
	}
	g.ladj.build(g)
	la := &g.ladj
	// Runs per vertex ≈ distinct neighbor labels: usually a handful, so
	// binary search over the run labels.
	lo, end := la.runStart[v], la.runStart[v+1]
	hi := end
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if la.runLabel[mid] < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < end && la.runLabel[lo] == l {
		return la.groups[la.runOff[lo]:la.runOff[lo+1]]
	}
	return nil
}

// build materializes the grouped adjacency once. Cost is O(E·log L_v)
// time and ~one extra copy of the adjacency array; safe for concurrent
// first callers via the Once.
func (la *labelAdj) build(g *Graph) {
	la.once.Do(func() {
		n := g.NumVertices()
		la.runStart = make([]int32, n+1)
		// Entry count: one per (neighbor, label-of-neighbor) pair.
		total := 0
		for v := 0; v < n; v++ {
			for _, w := range g.Neighbors(VertexID(v)) {
				total += len(g.Labels(w))
			}
		}
		la.groups = make([]VertexID, 0, total)
		type pair struct {
			l Label
			w VertexID
		}
		var buf []pair
		for v := 0; v < n; v++ {
			la.runStart[v] = int32(len(la.runLabel))
			nbrs := g.Neighbors(VertexID(v))
			buf = buf[:0]
			for _, w := range nbrs {
				for _, l := range g.Labels(w) {
					buf = append(buf, pair{l, w})
				}
			}
			// Stable by label: neighbors arrive ID-sorted, so IDs stay
			// sorted within each label run.
			sort.SliceStable(buf, func(i, j int) bool { return buf[i].l < buf[j].l })
			for i, p := range buf {
				if i == 0 || p.l != buf[i-1].l {
					la.runLabel = append(la.runLabel, p.l)
					la.runOff = append(la.runOff, int32(len(la.groups)))
				}
				la.groups = append(la.groups, p.w)
			}
		}
		la.runStart[n] = int32(len(la.runLabel))
		la.runOff = append(la.runOff, int32(len(la.groups)))
	})
}
