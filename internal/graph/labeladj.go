package graph

import (
	"math/bits"
	"slices"
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
// two trailing sentinels: run i spans groups[runs[i].off:runs[i+1].off],
// and runs[r+1] is in range for every r up to heads[n].start, so a lookup
// may read a run past its vertex's last before it knows the label absent.
// A multi-labeled neighbor appears once per label it carries.
//
// heads[v].low has bit l set when v has a run of label l < 32, so the run
// of such a label is found without a search: it is absent, or it is run
// start + (the number of v's runs of smaller labels), a popcount. Labels
// from 32 up are binary-searched among the runs past those. heads[v].twos
// has bit l set when that run holds at least two neighbors, so an NLC
// requirement of one or two neighbors per label below 32 is two mask
// tests (NLCCovers). A head is 12 bytes; 64-bit masks would double it,
// and the labels a graph uses most are usually its first few.
type labelAdj struct {
	once   sync.Once
	heads  []runHead
	runs   []labelRun
	groups []VertexID
}

// runHead is where a vertex's runs start, which labels below 32 they
// carry, and which of those they carry at least twice.
type runHead struct {
	low   uint32
	twos  uint32
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
	if g.numLabels <= 1 && !g.multiLabeled() {
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

// RunsWithLabel sets dst[i] to NeighborsWithLabel(vs[i], l) for every i and
// returns dst, resized to len(vs). For a label below 32 the lookup is one
// loop with no branch on the vertex: every iteration reads its head and two
// run offsets, and an absent label empties the run by a conditional
// assignment. The iterations do not depend on each other, so the cache
// misses of many vertices are in flight at once, where a NeighborsWithLabel
// per vertex waits on each head before it reads the runs. Labels from 32 up
// are looked up one vertex at a time.
func (g *Graph) RunsWithLabel(vs []VertexID, l Label, dst [][]VertexID) [][]VertexID {
	dst = slices.Grow(dst[:0], len(vs))[:len(vs)]
	if g.numLabels <= 1 && !g.multiLabeled() || l >= 32 {
		for i, v := range vs {
			dst[i] = g.NeighborsWithLabel(v, l)
		}
		return dst
	}
	g.ladj.build(g)
	la := &g.ladj
	bit := uint32(1) << l
	for i, v := range vs {
		h := la.heads[v]
		r := h.start + int32(bits.OnesCount32(h.low&(bit-1)))
		lo, hi := la.runs[r].off, la.runs[r+1].off
		if h.low&bit == 0 {
			hi = lo
		}
		dst[i] = la.groups[lo:hi]
	}
	return dst
}

// build materializes the grouped adjacency once, in time linear in its
// size: per vertex, its neighbors are counted per label rank, the ranks
// it touched are put in order (sorted, or read off the counts when they
// are an eighth of the ranks or more), and each neighbor is written
// straight into its runs. Label values are never used as indices, so a
// label up to MaxLabelValue costs what any other does. Safe for
// concurrent first callers via the Once.
func (la *labelAdj) build(g *Graph) {
	la.once.Do(func() {
		n := g.NumVertices()
		ranks := g.labelRanks()
		// One entry per (neighbor, label-of-neighbor) pair.
		total := 0
		for w := 0; w < n; w++ {
			lo, hi := g.labelSpan(VertexID(w))
			total += g.Degree(VertexID(w)) * int(hi-lo)
		}
		la.heads = make([]runHead, n+1)
		la.groups = make([]VertexID, total)
		// A run per (vertex, label) at most, and at most one per entry;
		// the two sentinels go on the end.
		la.runs = make([]labelRun, 0, min(total, n*len(g.labelKeys))+2)
		// next[r] counts v's neighbors carrying rank r, then is where the
		// next of them goes; it is zero again between vertices.
		next := make([]int32, len(g.labelKeys))
		var touched []int32
		pos := int32(0)
		for v := 0; v < n; v++ {
			h := &la.heads[v]
			h.start = int32(len(la.runs))
			nbrs := g.Neighbors(VertexID(v))
			touched = touched[:0]
			for _, w := range nbrs {
				lo, hi := g.labelSpan(w)
				for _, r := range ranks[lo:hi] {
					if next[r] == 0 {
						touched = append(touched, r)
					}
					next[r]++
				}
			}
			if len(touched)*8 < len(next) {
				slices.Sort(touched)
			} else { // many ranks touched: reading the counts is cheaper
				touched = touched[:0]
				for r, c := range next {
					if c != 0 {
						touched = append(touched, int32(r))
					}
				}
			}
			for _, r := range touched {
				l, c := g.labelKeys[r], next[r]
				la.runs = append(la.runs, labelRun{l, pos})
				if l < 32 {
					h.low |= 1 << l
					if c >= 2 {
						h.twos |= 1 << l
					}
				}
				next[r] = pos
				pos += c
			}
			// Neighbors arrive ID-sorted, so IDs stay sorted within each run.
			for _, w := range nbrs {
				lo, hi := g.labelSpan(w)
				for _, r := range ranks[lo:hi] {
					la.groups[next[r]] = w
					next[r]++
				}
			}
			for _, r := range touched {
				next[r] = 0
			}
		}
		la.heads[n].start = int32(len(la.runs))
		end := labelRun{off: pos}
		la.runs = append(la.runs, end, end)
		if cap(la.runs) > len(la.runs)+len(la.runs)/4 {
			la.runs = slices.Clone(la.runs) // the bound was loose; keep what is used
		}
	})
}
