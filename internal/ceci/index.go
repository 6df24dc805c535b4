// Package ceci implements the paper's core contribution: the Compact
// Embedding Cluster Index. The index logically decomposes the data graph
// into embedding clusters — one per pivot (data vertex matchable to the
// root query vertex) — and stores, per query vertex, the tree-edge and
// non-tree-edge candidate adjacency needed to enumerate embeddings purely
// by sorted-set intersection (Sections 3–4).
package ceci

import (
	"encoding/binary"
	"math"
	"slices"

	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/stats"
)

// CardSaturation caps cardinalities to avoid int64 overflow on dense
// graphs; any value at or above this is "effectively infinite" workload.
const CardSaturation = math.MaxInt64 / 4

// Node holds the per-query-vertex candidate structures.
type Node struct {
	// TE is keyed by the positions of the query-tree parent's candidates;
	// empty for the root (whose candidates are the pivots).
	TE CandMap
	// NTE[j] corresponds to the j-th non-tree edge arriving at this query
	// vertex from Tree.NTEParents[u][j], keyed by that parent's positions.
	NTE []CandMap
	// Cands is the sorted union candidate set of this query vertex.
	Cands []graph.VertexID
	// cards is the cardinality column, parallel to Cands (Section 3.3):
	// the maximum number of embeddings obtainable by matching that
	// candidate here, as computed by refinement, which deletes candidates
	// of cardinality zero. It holds len(Cands) little-endian values of 2,
	// 4 or 8 bytes each, the width cardColumn chose for the largest, so
	// the width is the column's length over the candidates' and the node
	// keeps no field for it.
	cards []byte
}

// CardAt returns the refined cardinality of the candidate at position p
// of Cands. Every reader of the column — ClusterCardinality,
// TotalCardinality, Dump, workload decomposition — reads through it.
func (n *Node) CardAt(p uint32) int64 {
	i := int(p)
	switch len(n.cards) {
	case 2 * len(n.Cands):
		return int64(binary.LittleEndian.Uint16(n.cards[2*i:]))
	case 4 * len(n.Cands):
		return int64(binary.LittleEndian.Uint32(n.cards[4*i:]))
	}
	return int64(binary.LittleEndian.Uint64(n.cards[8*i:]))
}

// cardColumn is the one width rule of a cardinality column: vals, each in
// [0, CardSaturation], become two-byte values when the largest is below
// 2^16, four-byte ones when it is below 2^32, and eight-byte ones
// otherwise (a saturated value among them). build finishes every node's
// column with it. Most columns need two bytes: of the cardinality values
// of the serve_churn benchmark's cache entries, 94 % sit in a column below
// 2^16 and 0.01 % in one that needs eight.
func cardColumn(vals []int64) []byte {
	var top int64
	for _, c := range vals {
		top = max(top, c)
	}
	var col []byte
	switch {
	case top < 1<<16:
		col = make([]byte, 0, 2*len(vals))
		for _, c := range vals {
			col = binary.LittleEndian.AppendUint16(col, uint16(c))
		}
	case top < 1<<32:
		col = make([]byte, 0, 4*len(vals))
		for _, c := range vals {
			col = binary.LittleEndian.AppendUint32(col, uint32(c))
		}
	default:
		col = make([]byte, 0, 8*len(vals))
		for _, c := range vals {
			col = binary.LittleEndian.AppendUint64(col, uint64(c))
		}
	}
	return col
}

// Narrow reports whether the node's maps hold their values at two bytes
// (CandMap.U16) rather than four (U32): the width compact chose, by the
// one rule, for a vertex with len(Cands) candidates.
func (n *Node) Narrow() bool { return narrowFits(len(n.Cands)) }

// slot returns the map in slot (teSlot or an NTE slot).
func (n *Node) slot(slot int) *CandMap {
	if slot == teSlot {
		return &n.TE
	}
	return &n.NTE[slot]
}

// flatBytes is the node's physical footprint: candidate and cardinality
// columns plus the TE/NTE columns.
func (n *Node) flatBytes() int64 {
	b := int64(len(n.Cands))*4 + int64(len(n.cards))
	b += n.TE.flatBytes()
	for j := range n.NTE {
		b += n.NTE[j].flatBytes()
	}
	return b
}

// Index is the CECI for one (data, query) pair.
type Index struct {
	Data  *graph.Graph
	Tree  *order.QueryTree
	Nodes []Node

	// ntePlan[u] splits u's intersection inputs into the two levels of
	// the depth cursor CandidatesFor keeps on a MatchScratch.
	ntePlan []cachePlan

	// A Restrict view holds the clusters of pivots, which are at clusters
	// in the root's Cands; both are nil in a complete index.
	clusters []uint32
	pivots   []graph.VertexID

	opts Options
}

// cachePlan is the shape of the two-level cursor over the intersection
// inputs of one query vertex u with non-tree edges. Every input is keyed
// by an earlier vertex of the (static) matching order: the TE list by the
// tree parent, NTE[j] by NTEParents[u][j]. The input keyed by the deepest
// of them is the inner list; every other input is the outer side. The
// enumeration's sibling loops move a deeper assignment more often than a
// shallower one, so the outer side — intersected once, and held as a
// bitmap once it meets a second inner key — changes only when an outer
// key's assignment does, and each change of the inner key costs one
// intersection against it. When the inner key is u's predecessor, whose
// sibling loop drives consecutive CandidatesFor(u, ...) calls, the result
// changes with every call; otherwise every key is fixed across that loop
// and the result is kept under all of them.
type cachePlan struct {
	// inner is the inner input's slot (teSlot, or j for NTE[j]) and
	// innerKey the vertex it is keyed by.
	inner    int
	innerKey graph.VertexID
	// volatile marks innerKey as u's predecessor in the matching order.
	volatile bool
	// outer lists the other inputs' slots — the TE list first, then NTE
	// slot order — and outerKeys their key vertices, index for index.
	outer     []int
	outerKeys []graph.VertexID
}

// teSlot is a cachePlan slot naming the TE list.
const teSlot = -1

// keySpace returns the candidates whose positions key u's map in slot: the
// tree parent's or NTEParents[u][slot]'s, none for the root's TE.
func (ix *Index) keySpace(u graph.VertexID, slot int) []graph.VertexID {
	if slot != teSlot {
		return ix.Nodes[ix.Tree.NTEParents[u][slot]].Cands
	}
	if p := ix.Tree.Parent[u]; p != order.NoParent {
		return ix.Nodes[p].Cands
	}
	return nil
}

// newIndex returns an index for (data, tree) with every node's NTE slots
// allocated and nothing in them. The tree is retained without its verdict
// tables and the options without the caller's pivot list (the build reads
// its own copy), so a finished (cached) index pins no per-data-vertex
// memory: a one-cluster index built from pivots[:1] would otherwise keep
// the whole list alive.
func newIndex(data *graph.Graph, tree *order.QueryTree, opts Options) *Index {
	tree = tree.WithFilter(nil)
	opts.Pivots = nil
	ix := &Index{Data: data, Tree: tree, Nodes: make([]Node, tree.NumVertices()), opts: opts}
	for u := range ix.Nodes {
		ix.Nodes[u].NTE = make([]CandMap, len(tree.NTEParents[u]))
	}
	return ix
}

// finish derives what enumeration reads beside the columns, once build
// has filled them: the per-vertex cursor plan (the embedding-cluster
// observation of Section 4.1 applied to every level: consecutive calls at
// the same depth share every ancestor assignment but the deepest ones).
func (ix *Index) finish() {
	tree := ix.Tree
	ix.ntePlan = make([]cachePlan, tree.NumVertices())
	for i := 1; i < len(tree.Order); i++ {
		u := tree.Order[i]
		nparents := tree.NTEParents[u]
		if len(nparents) == 0 {
			continue // one input: nothing to intersect
		}
		p := cachePlan{inner: teSlot, innerKey: graph.VertexID(tree.Parent[u])}
		for j, un := range nparents {
			if tree.Pos[un] > tree.Pos[p.innerKey] {
				p.inner, p.innerKey = j, un
			}
		}
		if p.inner != teSlot {
			p.outer = append(p.outer, teSlot)
			p.outerKeys = append(p.outerKeys, graph.VertexID(tree.Parent[u]))
		}
		for j, un := range nparents {
			if j != p.inner {
				p.outer = append(p.outer, j)
				p.outerKeys = append(p.outerKeys, un)
			}
		}
		p.volatile = p.innerKey == tree.Order[i-1]
		ix.ntePlan[u] = p
	}
}

// Options configures index construction.
type Options struct {
	// Workers bounds build parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// SkipNLCFilter disables the neighborhood-label-count filter
	// (ablation for Figure 19).
	SkipNLCFilter bool
	// SkipRefinement disables the reverse-BFS refinement pass (ablation
	// for Figure 19). Cardinalities are then set optimistically from TE
	// list sizes so workload balancing still functions.
	SkipRefinement bool
	// Pivots, when non-nil, restricts the index to the given embedding
	// clusters instead of deriving pivots from the root's candidate
	// filters. Used by the distributed runtime (Section 5), where each
	// machine builds a CECI over its assigned pivot partition. Callers
	// must pass vertices that satisfy the root filters; the build sorts
	// and deduplicates the list, so any order is accepted.
	Pivots []graph.VertexID
	// Stats receives the build's instrumentation counters (may be nil).
	// Every adjacency-list fetch increments Stats.RemoteReads so the
	// shared-storage cost model can charge IO per access. Enumeration
	// over the finished index counts into the enumeration's own options.
	Stats *stats.Counters
	// Profile, when non-nil, receives the build half of the EXPLAIN
	// ANALYZE accounting: the per-query-vertex filter funnel,
	// refinement/cascade deletions, and final TE/NTE shape.
	Profile *prof.Collector
	// Tracer, when non-nil, records a "build" span with "expand" and
	// "refine" children.
	Tracer *obs.Tracer
}

// NextCoverage is the growth rule of an index built lazily over a prefix
// of a query's ascending root candidates (Options.Pivots): how many of
// total the next index covers, when it must cover atLeast so many (1: any
// will do; more: a narrower one came up short, or only a complete one can
// answer). One cluster, then every cluster — on a dense graph clusters
// overlap after two hops, so the first 16 pivots already cost 0.84x a full
// build and the first 64 0.97x, while the first alone costs 0.48x and fills
// a page of 100 for 90 of 90 benchmark classes (EXPERIMENTS §PR 26). The
// service's cache entries and a limited ceci.Match both grow by it.
func NextCoverage(atLeast, total int) int {
	if atLeast <= 1 {
		return min(1, total)
	}
	return total
}

// Pivots returns the cluster pivots, ascending: the surviving candidates of
// the root query vertex (a Restrict view's). Each identifies one cluster.
func (ix *Index) Pivots() []graph.VertexID {
	if ix.clusters != nil {
		return ix.pivots
	}
	return ix.Nodes[ix.Tree.Root].Cands
}

// PivotPos returns the position in the root's Cands of the i-th pivot.
func (ix *Index) PivotPos(i int) uint32 {
	if ix.clusters == nil {
		return uint32(i)
	}
	return ix.clusters[i]
}

// Restrict returns a view of ix that holds only the embedding clusters of
// pivots (ascending; any that is not one of ix's pivots is left out). The
// view shares every column of ix — the root's Cands stay the key space of
// its children's maps — and lists the positions of its clusters.
// Enumerating the views of the blocks of a partition of ix.Pivots()
// enumerates ix.
func (ix *Index) Restrict(pivots []graph.VertexID) *Index {
	view := *ix
	view.clusters, view.pivots = make([]uint32, 0, len(pivots)), nil
	for _, v := range pivots {
		i, found := slices.BinarySearch(ix.Nodes[ix.Tree.Root].Cands, v)
		if _, held := slices.BinarySearch(ix.clusters, uint32(i)); found && (held || ix.clusters == nil) {
			view.clusters, view.pivots = append(view.clusters, uint32(i)), append(view.pivots, v)
		}
	}
	return &view
}

// ClusterCardinality returns the refined cardinality of the i-th pivot's
// embedding cluster — the upper bound on embeddings rooted at the pivot
// (Section 4.3).
func (ix *Index) ClusterCardinality(i int) int64 {
	return ix.Nodes[ix.Tree.Root].CardAt(ix.PivotPos(i))
}

// TotalCardinality sums cluster cardinalities over all pivots.
func (ix *Index) TotalCardinality() int64 {
	var total int64
	for i := range ix.Pivots() {
		total = satAdd(total, ix.ClusterCardinality(i))
	}
	return total
}

// CandidateEdges counts all (key, value) pairs across TE and NTE
// structures — the paper's Table 2 unit (8 bytes per candidate edge).
func (ix *Index) CandidateEdges() int64 {
	var n int64
	for u := range ix.Nodes {
		n += ix.Nodes[u].TE.CandidateEdges()
		for j := range ix.Nodes[u].NTE {
			n += ix.Nodes[u].NTE[j].CandidateEdges()
		}
	}
	return n
}

// UniqueCandidateEdges counts candidate edges the way the paper's Table 2
// does: "TE_Candidates and NTE_Candidates only store candidate edges
// once". The in-memory structure keeps both directions of an undirected
// candidate edge (key a value b, and key b value a) so that lookups are
// keyed by whichever endpoint got matched first; this accessor
// deduplicates them per query edge.
func (ix *Index) UniqueCandidateEdges() int64 {
	var n int64
	for u := range ix.Nodes {
		vals := ix.Nodes[u].Cands
		for slot := teSlot; slot < len(ix.Nodes[u].NTE); slot++ {
			m, keys := ix.Nodes[u].slot(slot), ix.keySpace(graph.VertexID(u), slot)
			m.ForEach(func(p uint32, list []uint32) {
				for _, q := range list {
					// Count (v, key) only when the mirrored direction is
					// absent from this map: key is a value, v a key, and
					// v's list lacks key.
					v := vals[q]
					if keys[p] < v {
						n++
					} else if rq, ok := slices.BinarySearch(vals, keys[p]); !ok {
						n++
					} else if rp, ok := slices.BinarySearch(keys, v); !ok {
						n++
					} else if !m.has(uint32(rp), uint32(rq)) {
						n++
					}
				}
			})
		}
	}
	return n
}

// SizeBytes reports the index size using the paper's 8-bytes-per-edge
// accounting over unique candidate edges, and TheoreticalBytes the
// O(|Eq|·|Eg|) worst case, enabling Table 2's "% of space saved" column.
func (ix *Index) SizeBytes() int64 { return 8 * ix.UniqueCandidateEdges() }

// PhysicalBytes reports the actual in-memory footprint, exactly: 4 bytes
// per offset and bare key, 2 or 4 per arena entry (CandMap), 4 per
// candidate and 2, 4 or 8 per cardinality (cardColumn) — the layout
// DESIGN.md maps to the paper's Table 2 byte model.
func (ix *Index) PhysicalBytes() int64 {
	var n int64
	for u := range ix.Nodes {
		n += ix.Nodes[u].flatBytes()
	}
	return n
}

// Dump renders the index's content in vertex ids as one flat list: per
// query vertex, the number of candidates and the candidates, their
// cardinalities, then the TE map and each NTE map in slot order as its
// number of entries and, per entry, the key, the length of its list and
// the list. It reads through Cands, CardAt and CandMap.ForEach only, so
// two indexes of one tree dump alike exactly when they hold the same
// candidates, cardinalities and entries, whatever their columns' layout:
// the identity tests compare builds by. A Restrict view dumps the whole
// index it views.
func (ix *Index) Dump() []uint64 {
	var out []uint64
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		out = append(out, uint64(len(node.Cands)))
		for _, v := range node.Cands {
			out = append(out, uint64(v))
		}
		for p := range node.Cands {
			out = append(out, uint64(node.CardAt(uint32(p))))
		}
		for slot := teSlot; slot < len(node.NTE); slot++ {
			m, keys := node.slot(slot), ix.keySpace(graph.VertexID(u), slot)
			out = append(out, uint64(m.Len()))
			m.ForEach(func(p uint32, list []uint32) {
				out = append(out, uint64(keys[p]), uint64(len(list)))
				for _, q := range list {
					out = append(out, uint64(node.Cands[q]))
				}
			})
		}
	}
	return out
}

// TheoreticalBytes returns the worst-case index footprint 8·|Eq|·|Eg|.
func (ix *Index) TheoreticalBytes() int64 {
	return 8 * int64(ix.Tree.Query.NumEdges()) * int64(ix.Data.NumEdges())
}

func satAdd(a, b int64) int64 {
	s := a + b
	if s < a || s > CardSaturation {
		return CardSaturation
	}
	return s
}

func satMul(a, b int64) int64 {
	if a == 0 || b == 0 {
		return 0
	}
	if a > CardSaturation/b {
		return CardSaturation
	}
	return a * b
}
