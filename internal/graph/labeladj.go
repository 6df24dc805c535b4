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
// Layout: groups is label-major. Label rank r (the label's index among
// the labels present) owns the region groups[regions[r]:regions[r+1]],
// which holds every vertex's run of that label, vertex by vertex in
// ascending order (IDs ascending within a run). A frontier expansion
// reads one label's runs of an ascending frontier, so it streams through
// one region front to back instead of jumping between vertex rows. A
// multi-labeled neighbor appears once per label it carries.
//
// The run directory stays vertex-major: heads[v].start..heads[v+1].start
// index the runs of v in runs, in label order, and run i spans
// groups[runs[i].off:runs[i].end]. The next record's run lies in another
// region, so a record carries its own end. runs has one trailing
// sentinel, so a lookup may read a run past its vertex's last before it
// knows the label absent. No record carries its label: the region a run
// lies in names it, and since the regions ascend by label, so do the
// offsets of one vertex's runs.
//
// heads[v].low has bit l set when v has a run of label l < 32, so the run
// of such a label is found without a search: it is absent, or it is run
// start + (the number of v's runs of smaller labels), a popcount. Labels
// from 32 up are binary-searched among the runs past those, by offset
// against the label's region. heads[v].twos has bit l set when that run
// holds at least two neighbors, so an NLC requirement of one or two
// neighbors per label below 32 is two mask tests (NLCCovers). A head is
// 12 bytes; 64-bit masks would double it, and the labels a graph uses
// most are usually its first few.
type labelAdj struct {
	once    sync.Once
	heads   []runHead
	runs    []labelRun
	regions []int32
	groups  []VertexID
}

// runHead is where a vertex's runs start, which labels below 32 they
// carry, and which of those they carry at least twice.
type runHead struct {
	low   uint32
	twos  uint32
	start int32
}

// labelRun is where one of a vertex's label runs lies in groups.
type labelRun struct {
	off, end int32
}

// findRun returns the index of v's run of label l in runs, and whether v
// has one.
func (g *Graph) findRun(v VertexID, l Label) (int32, bool) {
	la := &g.ladj
	h := la.heads[v]
	if l < 32 {
		below := uint32(1)<<l - 1
		return h.start + int32(bits.OnesCount32(h.low&below)), h.low>>l&1 == 1
	}
	r, ok := slices.BinarySearch(g.labelKeys, l)
	if !ok {
		return 0, false
	}
	// v's first run at or past the start of l's region is l's if it
	// starts before the region ends.
	from := la.regions[r]
	lo, end := h.start+int32(bits.OnesCount32(h.low)), la.heads[v+1].start
	hi := end
	for lo < hi {
		mid := int32(uint32(lo+hi) >> 1)
		if la.runs[mid].off < from {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < end && la.runs[lo].off < la.regions[r+1]
}

// NeighborsWithLabel returns the sorted neighbors of v whose label set
// contains l. The result aliases internal storage and must not be
// modified. For single-label graphs it is Neighbors(v) (l == 0) or nil —
// no index is materialized — so unlabeled workloads pay nothing.
func (g *Graph) NeighborsWithLabel(v VertexID, l Label) []VertexID {
	if g.numLabels <= 1 && !g.MultiLabeled() {
		if l == 0 {
			return g.Neighbors(v)
		}
		return nil
	}
	g.ladj.build(g)
	if i, ok := g.findRun(v, l); ok {
		r := g.ladj.runs[i]
		return g.ladj.groups[r.off:r.end]
	}
	return nil
}

// RunsWithLabel sets dst[i] to NeighborsWithLabel(vs[i], l) for every i and
// returns dst, resized to len(vs). For a label below 32 the lookup is one
// loop with no branch on the vertex: every iteration reads its head and its
// run record, and an absent label empties the run by a conditional
// assignment. The iterations do not depend on each other, so the cache
// misses of many vertices are in flight at once, where a NeighborsWithLabel
// per vertex waits on each head before it reads the runs; and an ascending
// vs reads its runs front to back through the label's region. Labels from
// 32 up are looked up one vertex at a time.
func (g *Graph) RunsWithLabel(vs []VertexID, l Label, dst [][]VertexID) [][]VertexID {
	dst = slices.Grow(dst[:0], len(vs))[:len(vs)]
	if g.numLabels <= 1 && !g.MultiLabeled() || l >= 32 {
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
		r := la.runs[h.start+int32(bits.OnesCount32(h.low&(bit-1)))]
		lo, hi := r.off, r.end
		if h.low&bit == 0 {
			hi = lo
		}
		dst[i] = la.groups[lo:hi]
	}
	return dst
}

// build materializes the grouped adjacency once, in time linear in its
// size. Rank r's region is as long as the degrees of the vertices
// carrying its label sum to, so the regions are laid out before any run,
// and one pass counts the runs, so the directory is allocated exactly.
// Then, per vertex in ascending order, each neighbor is written straight
// into its runs — a rank's run starts where its region's cursor stood
// when the vertex first touched it — and the ranks it touched are put in
// order (sorted, or read off the marks when they are an eighth of the
// ranks or more) to write the vertex's run records. Label values are never
// used as indices, so a label up to MaxLabelValue costs what any other
// does. Safe for concurrent first callers via the Once.
func (la *labelAdj) build(g *Graph) {
	la.once.Do(func() {
		n := g.NumVertices()
		ranks := g.labelRanks()
		// One entry per (neighbor, label-of-neighbor) pair: w appears in
		// the region of each of its labels once per neighbor it has.
		la.regions = make([]int32, len(g.labelKeys)+1)
		for w := 0; w < n; w++ {
			lo, hi := g.labelSpan(VertexID(w))
			for _, r := range ranks[lo:hi] {
				la.regions[r+1] += int32(g.Degree(VertexID(w)))
			}
		}
		for r := range g.labelKeys {
			la.regions[r+1] += la.regions[r]
		}
		total := int(la.regions[len(g.labelKeys)])
		la.heads = make([]runHead, n+1)
		la.groups = make([]VertexID, total)
		// A run per (vertex, rank its neighbors carry), counted first so
		// the directory is allocated at its size; the sentinel goes on the
		// end. seen[r] is v+1 once v's neighbors were found to carry r, and
		// a rank counts when its entry changes, without a branch.
		seen, nruns := make([]uint32, len(g.labelKeys)), uint32(0)
		for v := 0; v < n; v++ {
			stamp := uint32(v + 1)
			for _, w := range g.Neighbors(VertexID(v)) {
				lo, hi := g.labelSpan(w)
				for _, r := range ranks[lo:hi] {
					d := seen[r] ^ stamp
					nruns += (d | -d) >> 31
					seen[r] = stamp
				}
			}
		}
		la.runs = make([]labelRun, 0, nruns+1)
		clear(seen)
		// free[r] is where the next entry of rank r goes, and start[r]
		// where v's run of rank r began, once seen[r] says v has one.
		free := slices.Clone(la.regions[:len(g.labelKeys)])
		start := make([]int32, len(g.labelKeys))
		var touched []int32
		for v := 0; v < n; v++ {
			h := &la.heads[v]
			h.start = int32(len(la.runs))
			stamp := uint32(v + 1)
			touched = touched[:0]
			// Neighbors arrive ID-sorted, so IDs stay sorted within each run.
			for _, w := range g.Neighbors(VertexID(v)) {
				lo, hi := g.labelSpan(w)
				for _, r := range ranks[lo:hi] {
					if seen[r] != stamp {
						seen[r], start[r] = stamp, free[r]
						touched = append(touched, r)
					}
					la.groups[free[r]] = w
					free[r]++
				}
			}
			if len(touched)*8 < len(seen) {
				slices.Sort(touched)
			} else { // many ranks touched: reading the marks is cheaper
				touched = touched[:0]
				for r, s := range seen {
					if s == stamp {
						touched = append(touched, int32(r))
					}
				}
			}
			for _, r := range touched {
				l, off, end := g.labelKeys[r], start[r], free[r]
				la.runs = append(la.runs, labelRun{off, end})
				if l < 32 {
					h.low |= 1 << l
					if end-off >= 2 {
						h.twos |= 1 << l
					}
				}
			}
		}
		la.heads[n].start = int32(len(la.runs))
		la.runs = append(la.runs, labelRun{})
	})
}
