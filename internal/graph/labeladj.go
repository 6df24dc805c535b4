package graph

import (
	"math/bits"
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
// heads[v].start..heads[v+1].start index the runs of v in runs, which has
// one trailing sentinel so run i spans groups[runs[i].off:runs[i+1].off].
// A multi-labeled neighbor appears once per label it carries.
//
// heads[v].low has bit l set when v has a run of label l < 32, so the run
// of such a label is found without a search: it is absent, or it is run
// start + (the number of v's runs of smaller labels), a popcount. Labels
// from 32 up are binary-searched among the runs past those. A head is 8
// bytes, 4 more than a bare run start; a 64-bit mask would pad it to 16,
// and the labels a graph uses most are usually its first few.
type labelAdj struct {
	once   sync.Once
	heads  []runHead
	runs   []labelRun
	groups []VertexID
}

// runHead is where a vertex's runs start and which labels below 32 they
// carry.
type runHead struct {
	low   uint32
	start int32
}

// labelRun is one label's run of a vertex's grouped neighbors: the label
// and where the run starts in groups.
type labelRun struct {
	label Label
	off   int32
}

// find returns the index of v's run of label l in runs, and whether v has
// one.
func (la *labelAdj) find(v VertexID, l Label) (int32, bool) {
	h := la.heads[v]
	if l < 32 {
		below := uint32(1)<<l - 1
		return h.start + int32(bits.OnesCount32(h.low&below)), h.low>>l&1 == 1
	}
	lo, end := h.start+int32(bits.OnesCount32(h.low)), la.heads[v+1].start
	hi := end
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if la.runs[mid].label < l {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < end && la.runs[lo].label == l
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
	if i, ok := la.find(v, l); ok {
		return la.groups[la.runs[i].off:la.runs[i+1].off]
	}
	return nil
}

// build materializes the grouped adjacency once. Cost is O(E·log L_v)
// time and ~one extra copy of the adjacency array; safe for concurrent
// first callers via the Once.
func (la *labelAdj) build(g *Graph) {
	la.once.Do(func() {
		n := g.NumVertices()
		la.heads = make([]runHead, n+1)
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
			h := &la.heads[v]
			h.start = int32(len(la.runs))
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
					la.runs = append(la.runs, labelRun{p.l, int32(len(la.groups))})
					if p.l < 32 {
						h.low |= 1 << p.l
					}
				}
				la.groups = append(la.groups, p.w)
			}
		}
		la.heads[n].start = int32(len(la.runs))
		la.runs = append(la.runs, labelRun{off: int32(len(la.groups))})
	})
}
