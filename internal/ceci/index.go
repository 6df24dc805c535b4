// Package ceci implements the paper's core contribution: the Compact
// Embedding Cluster Index. The index logically decomposes the data graph
// into embedding clusters — one per pivot (data vertex matchable to the
// root query vertex) — and stores, per query vertex, the tree-edge and
// non-tree-edge candidate adjacency needed to enumerate embeddings purely
// by sorted-set intersection (Sections 3–4).
package ceci

import (
	"math"
	"sync/atomic"

	"ceci/internal/bitset"
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
	// TE is keyed by the candidates of the query-tree parent; empty for
	// the root (whose candidates are the pivots).
	TE CandMap
	// NTE[j] corresponds to the j-th non-tree edge arriving at this query
	// vertex from Tree.NTEParents[u][j], keyed by that parent's candidates.
	NTE []CandMap
	// Cands is the sorted union candidate set of this query vertex.
	Cands []graph.VertexID
	// Card maps candidate -> cardinality (Section 3.3): the maximum
	// number of embeddings obtainable by matching this candidate here.
	// Populated by Refine; zero-cardinality candidates are deleted.
	// Build-time only: Freeze compacts it into cardVals and nils it.
	Card map[graph.VertexID]int64
	// cardVals is the frozen cardinality column, parallel to Cands.
	cardVals []int64
}

// CardOf returns the refined cardinality of candidate v at this node
// (0 when v is not a candidate). Works in both the mutable and the
// frozen representation.
func (n *Node) CardOf(v graph.VertexID) int64 {
	if n.cardVals != nil {
		cands := n.Cands
		lo, hi := 0, len(cands)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if cands[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(cands) && cands[lo] == v {
			return n.cardVals[lo]
		}
		return 0
	}
	return n.Card[v]
}

// freeze compacts the node's build-time structures: TE and every NTE map
// share one arena sized to the node's candidate-edge total, and the Card
// map collapses into a cardinality column parallel to Cands. Nodes whose
// arena would overflow the 32-bit offsets stay mutable — every accessor
// handles both modes, so this is a (purely theoretical, >4G candidate
// edges per query vertex) graceful degradation, not an error.
func (n *Node) freeze() {
	total := n.TE.CandidateEdges()
	for j := range n.NTE {
		total += n.NTE[j].CandidateEdges()
	}
	if total <= math.MaxUint32 {
		arena := make([]graph.VertexID, 0, total)
		arena = n.TE.freezeInto(arena)
		for j := range n.NTE {
			arena = n.NTE[j].freezeInto(arena)
		}
	}
	if n.cardVals == nil {
		n.cardVals = make([]int64, len(n.Cands))
		for i, v := range n.Cands {
			n.cardVals[i] = n.Card[v]
		}
		n.Card = nil
	}
}

// flatBytes is the node's physical frozen footprint: candidate and
// cardinality columns plus the flat TE/NTE structures.
func (n *Node) flatBytes() int64 {
	b := int64(len(n.Cands))*4 + int64(len(n.cardVals))*8
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

	// nteChildIdx[u] lists, for each query vertex u, the (child, slot)
	// pairs such that Nodes[child].NTE[slot] is keyed by u's candidates.
	nteChildIdx [][]nteRef

	// frozen is set once Freeze has compacted the build-time structures
	// into the flat arena-backed form.
	frozen bool
	// bcancel, when non-nil, is flipped by BuildCtx's context watcher;
	// construction loops poll it and abort. Build-time only.
	bcancel *atomic.Bool
	// scratch holds the per-worker build buffers (private bins, §3.6);
	// released by Freeze.
	scratch []buildScratch
	// valbuf is the reusable frontier-expansion output table.
	valbuf [][]graph.VertexID
	// filter holds the build's LDF+NLC verdict tables; released by Freeze
	// (Tree is retained without them).
	filter *order.Filter
	// marks is valueUnion's reusable |V|-bit scratch; released by Freeze.
	marks bitset.Bits

	// Label-pair prune state (l2Match-style neighboring-label index),
	// built by Freeze when Options.LabelPairPrune is on and the graph is
	// labeled. nbrSig[v] is the neighbor-label bloom of data vertex v
	// (shared graph storage); reqMask[u] the bloom of labels required by
	// query vertex u's later-matched query neighbors. A candidate v for u
	// with nbrSig[v] ⊉ reqMask[u] cannot extend any partial embedding
	// (its neighborhood provably lacks a needed label) and is dropped
	// before any intersection kernel runs.
	nbrSig  []uint64
	reqMask []uint64

	// ntePlan[u] records how CandidatesFor may cache intersections at u's
	// depth across the sibling loop of u's predecessor in the matching
	// order. Built at Freeze() time; nil until then (unfrozen indexes take
	// the direct path).
	ntePlan []cachePlan

	opts Options
}

// cachePlan splits the intersection inputs of one query vertex by
// volatility. The matching order is static, so the vertex matched
// immediately before u — the one whose sibling loop drives consecutive
// CandidatesFor(u, ...) calls — is known at freeze time. Any input list
// keyed by that vertex ("volatile") changes on every call; every other
// input is keyed by an ancestor assignment that stays fixed across the
// whole loop ("stable") and can be intersected once and reused. At most
// one input is volatile: the TE base list when u's tree parent is the
// predecessor, or a single NTE list when that edge is non-tree.
type cachePlan struct {
	// use enables the stable-cache path: at least two inputs are stable,
	// so the cached intersection actually precomputes work. With fewer,
	// the cache would hold a raw input list and the fixed pairing order
	// would forfeit IntersectK's smallest-first ordering (measured 2x
	// slower on the clique queries).
	use bool
	// volBase marks the TE base list volatile (tree parent == predecessor).
	volBase bool
	// volNTE is the volatile NTE slot, or -1.
	volNTE int
}

// Freeze compacts the mutable build-time structures into the flat
// arena-backed representation used by the steady state — CandidatesFor,
// VerifyNTE, cardinality lookups, FGD decomposition, and serialization
// all read the frozen form. Build calls it automatically after
// refinement; it is idempotent. After Freeze the index is immutable.
func (ix *Index) Freeze() {
	if ix.frozen {
		return
	}
	ix.frozen = true
	ix.scratch = nil // release the pooled build buffers
	ix.valbuf = nil
	ix.filter = nil
	ix.marks = nil
	ix.bcancel = nil // the build completed; drop the watcher flag
	for u := range ix.Nodes {
		ix.Nodes[u].freeze()
	}
	if ix.opts.LabelPairPrune && ix.Data.NumLabels() > 1 {
		ix.buildLabelPrune()
	}
	ix.buildCachePlan()
}

// buildCachePlan computes the per-vertex volatility split CandidatesFor
// uses to cache stable intersections across sibling loops (the
// embedding-cluster observation of Section 4.1 applied one level up:
// consecutive calls at the same depth share every ancestor assignment
// except the predecessor's).
func (ix *Index) buildCachePlan() {
	tree := ix.Tree
	ix.ntePlan = make([]cachePlan, tree.NumVertices())
	for i := 1; i < len(tree.Order); i++ {
		u, prev := tree.Order[i], tree.Order[i-1]
		p := cachePlan{volNTE: -1}
		if graph.VertexID(tree.Parent[u]) == prev {
			p.volBase = true
		}
		for j, un := range tree.NTEParents[u] {
			if un == prev {
				p.volNTE = j
				break
			}
		}
		stable := 1 + len(tree.NTEParents[u])
		if p.volBase {
			stable--
		}
		if p.volNTE >= 0 {
			stable--
		}
		p.use = len(tree.NTEParents[u]) > 0 && stable >= 2
		ix.ntePlan[u] = p
	}
}

// buildLabelPrune materializes the label-pair prune masks. The
// per-data-vertex blooms are computed once per graph (lazily, shared
// across indexes); only the per-query reqMask is built here. A query
// neighbor matched later is either a tree child of u or carries a
// non-tree edge keyed by u's match, so a candidate missing one of those
// labels in its neighborhood can only lead to empty lookups deeper in
// the search — pruning it changes no embedding, which
// TestLabelPairPruneEquivalence locks in.
func (ix *Index) buildLabelPrune() {
	ix.nbrSig = ix.Data.NeighborLabelBlooms()
	tree := ix.Tree
	q := tree.Query
	pos := make([]int, tree.NumVertices())
	for i, u := range tree.Order {
		pos[u] = i
	}
	ix.reqMask = make([]uint64, tree.NumVertices())
	for u := range ix.reqMask {
		var req uint64
		for _, w := range q.Neighbors(graph.VertexID(u)) {
			if pos[w] > pos[u] {
				for _, l := range q.Labels(w) {
					req |= 1 << (l & 63)
				}
			}
		}
		ix.reqMask[u] = req
	}
}

// Frozen reports whether Freeze has run.
func (ix *Index) Frozen() bool { return ix.frozen }

type nteRef struct {
	child graph.VertexID
	slot  int
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
	// RefineRounds is the number of reverse-BFS refinement passes
	// (default 1, matching the paper; extra rounds prune strictly more).
	RefineRounds int
	// LabelPairPrune enables the l2Match-style neighboring-label prune at
	// enumeration time: candidates whose data neighborhood provably lacks
	// a label required by the query vertex's still-unmatched neighbors
	// are dropped before any intersection kernel runs. Always safe (bloom
	// collisions only keep candidates, never drop matches). Off by
	// default because the NLC filter's count-coverage subsumes it on
	// standard builds; it recovers most of that pruning under
	// SkipNLCFilter and costs one AND-compare per base candidate.
	LabelPairPrune bool
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
	// per-round "refine" children.
	Tracer *obs.Tracer

	// skipFreeze leaves the index in the mutable build-time
	// representation. Test-only: the mutable-vs-frozen equivalence
	// property tests need both forms of the same build.
	skipFreeze bool
}

// Pivots returns the cluster pivots: the surviving candidates of the root
// query vertex. Each pivot identifies one embedding cluster.
func (ix *Index) Pivots() []graph.VertexID { return ix.Nodes[ix.Tree.Root].Cands }

// ClusterCardinality returns the refined cardinality of pivot's embedding
// cluster — the upper bound on embeddings rooted at pivot (Section 4.3).
func (ix *Index) ClusterCardinality(pivot graph.VertexID) int64 {
	return ix.Nodes[ix.Tree.Root].CardOf(pivot)
}

// TotalCardinality sums cluster cardinalities over all pivots.
func (ix *Index) TotalCardinality() int64 {
	var total int64
	for _, p := range ix.Pivots() {
		total = satAdd(total, ix.ClusterCardinality(p))
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
	count := func(m *CandMap) {
		m.ForEach(func(key graph.VertexID, vals []graph.VertexID) {
			for _, v := range vals {
				if key < v {
					n++
				} else {
					// Count (v, key) only when the mirrored direction is
					// absent from this map.
					rev := m.Get(v)
					if !containsSorted(rev, key) {
						n++
					}
				}
			}
		})
	}
	for u := range ix.Nodes {
		count(&ix.Nodes[u].TE)
		for j := range ix.Nodes[u].NTE {
			count(&ix.Nodes[u].NTE[j])
		}
	}
	return n
}

func containsSorted(vs []graph.VertexID, x graph.VertexID) bool {
	lo, hi := 0, len(vs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(vs) && vs[lo] == x
}

// SizeBytes reports the index size using the paper's 8-bytes-per-edge
// accounting over unique candidate edges, and TheoreticalBytes the
// O(|Eq|·|Eg|) worst case, enabling Table 2's "% of space saved" column.
func (ix *Index) SizeBytes() int64 { return 8 * ix.UniqueCandidateEdges() }

// PhysicalBytes reports the actual in-memory footprint. For a frozen
// index this is exact: 4 bytes per key, 4 per offset, 4 per arena entry
// (plus the candidate and cardinality columns) — the flat layout DESIGN.md
// maps to the paper's Table 2 byte model. For a mutable index it is the
// pre-freeze estimate of 4 bytes per stored value plus 12 per key (key +
// slice header amortized).
func (ix *Index) PhysicalBytes() int64 {
	if ix.frozen {
		var n int64
		for u := range ix.Nodes {
			n += ix.Nodes[u].flatBytes()
		}
		return n
	}
	var n int64
	add := func(m *CandMap) {
		n += int64(m.Len())*12 + m.CandidateEdges()*4
	}
	for u := range ix.Nodes {
		add(&ix.Nodes[u].TE)
		for j := range ix.Nodes[u].NTE {
			add(&ix.Nodes[u].NTE[j])
		}
	}
	return n
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
