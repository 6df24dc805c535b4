package ceci

import (
	"context"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ceci/internal/bitset"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/setops"
)

// Build constructs the CECI for (data, tree) following Algorithm 1:
// BFS-ordered frontier expansion with label / degree / NLC filters for
// both tree-edge and non-tree-edge candidates, empty-entry cascade
// deletion, and (unless disabled) the reverse-BFS refinement of
// Algorithm 2.
func Build(data *graph.Graph, tree *order.QueryTree, opts Options) *Index {
	ix, _ := BuildCtx(context.Background(), data, tree, opts)
	return ix
}

// BuildCtx is Build with cancellation: the construction observes ctx at
// frontier-chunk, query-vertex, and refinement-round granularity and
// aborts promptly once the deadline passes or the context is cancelled,
// returning a nil index and the context's error. The cancellation check
// is one relaxed atomic load — workers never block on the context — so
// the uncancelled build costs the same as Build.
func BuildCtx(ctx context.Context, data *graph.Graph, tree *order.QueryTree, opts Options) (*Index, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var cancelled *atomic.Bool
	if ctx.Done() != nil {
		cancelled = new(atomic.Bool)
		stop := context.AfterFunc(ctx, func() { cancelled.Store(true) })
		defer stop()
	}
	ix := build(ctx, data, tree, opts, cancelled)
	if cancelled != nil && cancelled.Load() {
		if err := context.Cause(ctx); err != nil {
			return nil, err
		}
	}
	return ix, nil
}

// build is the shared construction body. cancelled, when non-nil, is
// flipped by the context watcher; the partially built index returned
// after an abort is discarded by BuildCtx.
func build(ctx context.Context, data *graph.Graph, tree *order.QueryTree, opts Options, cancelled *atomic.Bool) *Index {
	if opts.RefineRounds <= 0 {
		opts.RefineRounds = 1
	}
	// StartUnder parents the build span beneath the request's ambient
	// span (service queries) or trace context (remote machines) when the
	// context carries one; a bare Build stays a local root span.
	span := obs.StartUnder(ctx, opts.Tracer, "build",
		obs.Int("query_vertices", int64(tree.NumVertices())))
	defer span.End()
	// The verdict tables are build-time state: the index reads them and
	// retains the tree without them, so a frozen (cached) index pins no
	// per-data-vertex memory.
	filter := tree.Filter(data)
	tree = tree.WithFilter(nil)
	ix := &Index{
		Data:    data,
		Tree:    tree,
		Nodes:   make([]Node, tree.NumVertices()),
		opts:    opts,
		bcancel: cancelled,
		filter:  filter,
	}
	ix.indexNTEChildren()
	if p := opts.Profile; p != nil {
		ix.InitProfile(p)
	}

	// Root candidates = cluster pivots.
	root := tree.Root
	if opts.Pivots != nil {
		pivots := make([]graph.VertexID, len(opts.Pivots))
		copy(pivots, opts.Pivots)
		// Candidate sets are sorted everywhere else (binary searches,
		// set operations, AppendKey's append fast path); sorting and
		// deduplicating here keeps an unsorted caller from silently
		// degrading AppendKey into its O(n) middle-insert path — or
		// worse, breaking the removeCandidate binary search.
		slices.Sort(pivots)
		pivots = slices.Compact(pivots)
		ix.Nodes[root].Cands = pivots
	} else {
		ix.Nodes[root].Cands = filter.Candidates(root)
	}

	// Expand every non-root query vertex in matching order: first its
	// tree edge, then each incoming non-tree edge.
	esp := span.Child("expand", obs.Int("pivots", int64(len(ix.Nodes[root].Cands))))
	for _, u := range tree.Order[1:] {
		if ix.buildCancelled() {
			esp.End()
			return ix
		}
		ix.buildTE(u)
		ix.buildNTE(u)
	}
	esp.End()

	if opts.SkipRefinement {
		ix.optimisticCardinalities()
	} else {
		for round := 0; round < opts.RefineRounds; round++ {
			if ix.buildCancelled() {
				return ix
			}
			rsp := span.Child("refine", obs.Int("round", int64(round)))
			ix.refine()
			rsp.End()
		}
	}
	if ix.buildCancelled() {
		return ix
	}
	if !opts.skipFreeze {
		// Compact the mutable build-time structures into the flat
		// arena-backed steady-state form (and release the build scratch).
		ix.Freeze()
	}
	if opts.Stats != nil {
		opts.Stats.IndexBytes.Store(ix.SizeBytes())
	}
	if p := opts.Profile; p != nil {
		ix.recordShape(p)
	}
	return ix
}

// InitProfile sizes p's per-vertex state for this index's query. The
// builder calls it before spawning workers and the enumerator before
// charging its funnel (a loaded index was never built under p).
// Idempotent, so the incremental mode's per-cluster builds all share
// one collector and their counters accumulate.
func (ix *Index) InitProfile(p *prof.Collector) {
	tree := ix.Tree
	p.InitQuery(tree.NumVertices(), func(u int) []int {
		parents := make([]int, len(tree.NTEParents[u]))
		for j, pv := range tree.NTEParents[u] {
			parents[j] = int(pv)
		}
		return parents
	})
}

// recordShape charges the surviving index shape — candidate counts and
// TE/NTE entry and candidate-edge totals — to the profile. Adds rather
// than stores: the incremental mode builds one cluster at a time and the
// per-cluster shapes sum to the whole-index shape.
func (ix *Index) recordShape(p *prof.Collector) {
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		vc := p.Vertex(u)
		vc.FinalCands.Add(int64(len(node.Cands)))
		vc.TEEntries.Add(int64(node.TE.Len()))
		vc.TECandidates.Add(node.TE.CandidateEdges())
		vc.FlatBytes.Add(node.flatBytes())
		for j := range node.NTE {
			nc := vc.NTE(j)
			nc.Entries.Add(int64(node.NTE[j].Len()))
			nc.Candidates.Add(node.NTE[j].CandidateEdges())
		}
	}
}

func (ix *Index) indexNTEChildren() {
	tree := ix.Tree
	ix.nteChildIdx = make([][]nteRef, tree.NumVertices())
	for u := 0; u < tree.NumVertices(); u++ {
		ix.Nodes[u].NTE = make([]CandMap, len(tree.NTEParents[u]))
		for j, p := range tree.NTEParents[u] {
			ix.nteChildIdx[p] = append(ix.nteChildIdx[p], nteRef{child: graph.VertexID(u), slot: j})
		}
	}
}

func (ix *Index) workers() int {
	if ix.opts.Workers > 0 {
		return ix.opts.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// buildCancelled reports whether the construction's context fired. The
// flag is nil for non-cancellable builds, so the check costs one nil
// compare on the Build path and one atomic load under BuildCtx.
func (ix *Index) buildCancelled() bool {
	return ix.bcancel != nil && ix.bcancel.Load()
}

// parallelFor runs fn(i, w) for i in [0, n) across the index's worker
// budget, pulling fixed-size chunks from a shared cursor — the paper's
// pull-based dynamic distribution with per-thread private bins (§3.6).
// w identifies the executing worker so fn can use pooled per-worker
// scratch; beyond that, workers write only to their own output slots.
func (ix *Index) parallelFor(n int, fn func(i, w int)) {
	workers := ix.workers()
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 64 {
		for i := 0; i < n; i++ {
			if i&63 == 0 && ix.buildCancelled() {
				return
			}
			fn(i, 0)
		}
		return
	}
	const chunk = 32
	var cursor int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			for {
				lo := int(atomic.AddInt64(&cursor, chunk)) - chunk
				if lo >= n || ix.buildCancelled() {
					return
				}
				hi := lo + chunk
				if hi > n {
					hi = n
				}
				for i := lo; i < hi; i++ {
					fn(i, w)
				}
			}
		}(w)
	}
	wg.Wait()
}

// buildTE expands the frontier of u's parent, filtering neighbors into
// TE_Candidates of u (Algorithm 1). Frontier vertices whose expansion
// yields no candidate are cascaded out of the index.
func (ix *Index) buildTE(u graph.VertexID) {
	tree := ix.Tree
	up := graph.VertexID(tree.Parent[u])
	frontier := ix.Nodes[up].Cands

	// The LDF+NLC verdict of every data vertex against u was decided once
	// (order.Filter); expansion probes the table. The NLC ablation keeps
	// one more verdict instead of running a second filter.
	verdicts := ix.filter.Verdicts(u)
	keep := order.Pass
	if ix.opts.SkipNLCFilter {
		keep = order.DropNLC
	}
	values := ix.valueSlots(len(frontier))
	scratch := ix.scratches()
	ix.parallelFor(len(frontier), func(i, w int) {
		sc := &scratch[w]
		sc.buf = ix.filterNeighborsInto(sc.buf[:0], frontier[i], u, verdicts, keep)
		values[i] = sc.arena.copyIn(sc.buf)
	})
	if ix.buildCancelled() {
		// The value table may have unfilled slots; consuming it would
		// cascade-delete live candidates. The caller discards the index.
		return
	}

	node := &ix.Nodes[u]
	var dead []graph.VertexID
	for i, vf := range frontier {
		if len(values[i]) == 0 {
			// No tree-edge candidate under vf: vf cannot match up
			// (Algorithm 1 lines 9-12).
			dead = append(dead, vf)
			if ix.opts.Stats != nil {
				ix.opts.Stats.FilteredCascade.Add(1)
			}
			continue
		}
		node.TE.AppendKey(vf, values[i])
	}
	node.Cands = ix.valueUnion(&node.TE)
	for _, vf := range dead {
		ix.removeCandidate(up, vf)
	}
}

// buildNTE fills, for each non-tree edge (un, u), the NTE_Candidates of u
// keyed by un's candidates. Values are the intersection of the key's data
// adjacency with u's candidate set — neighbors failing the label/degree/
// NLC filters are already absent from Cands, so no re-filtering is needed.
func (ix *Index) buildNTE(u graph.VertexID) {
	tree := ix.Tree
	node := &ix.Nodes[u]
	// Every member of Cands carries u's labels, so intersecting with the
	// key's label partition (neighbors carrying u's primary label) is
	// equivalent to intersecting with its full adjacency — just over a
	// shorter left list. Unlabeled graphs fall through to Neighbors.
	uLabel := tree.Query.Label(u)
	for j, un := range tree.NTEParents[u] {
		frontier := ix.Nodes[un].Cands
		values := ix.valueSlots(len(frontier))
		scratch := ix.scratches()
		ix.parallelFor(len(frontier), func(i, w int) {
			sc := &scratch[w]
			sc.buf = setops.Intersect(sc.buf[:0], ix.Data.NeighborsWithLabel(frontier[i], uLabel), node.Cands)
			values[i] = sc.arena.copyIn(sc.buf)
		})
		if ix.buildCancelled() {
			return // unfilled value slots; index is being discarded
		}
		if ix.opts.Stats != nil {
			ix.opts.Stats.IntersectionOps.Add(int64(len(frontier)))
			ix.opts.Stats.RemoteReads.Add(int64(len(frontier)))
		}
		for i, vn := range frontier {
			if len(values[i]) > 0 {
				node.NTE[j].AppendKey(vn, values[i])
			}
		}
		if p := ix.opts.Profile; p != nil {
			// Merge-intersection work: |adj_label(vn)| + |Cands(u)|
			// comparisons per frontier key (the label partition is what
			// was actually intersected), versus what each kept.
			var cmp, out int64
			for i, vn := range frontier {
				cmp += int64(len(ix.Data.NeighborsWithLabel(vn, uLabel)) + len(node.Cands))
				out += int64(len(values[i]))
			}
			nc := p.Vertex(int(u)).NTE(j)
			nc.BuildComparisons.Add(cmp)
			nc.BuildOutput.Add(out)
		}
	}
}

// filterNeighborsInto keeps the neighbors of vf that are candidates of u —
// the label, degree, and NLC filters of Section 3.2, read off u's verdict
// table: a neighbor survives when its verdict is at least keep. Survivors
// are appended to dst (sorted ascending, since adjacency lists are
// sorted). dst is a worker-private scratch buffer; callers copy the
// survivors into an arena before the buffer is reused.
func (ix *Index) filterNeighborsInto(dst []graph.VertexID, vf, u graph.VertexID, verdicts []order.Verdict, keep order.Verdict) []graph.VertexID {
	data := ix.Data
	degree := int64(data.Degree(vf))
	// Label-grouped adjacency: scan only the neighbors carrying u's
	// primary label instead of label-testing the whole list. The
	// partition IS the primary-label filter, so the skipped complement is
	// charged to the label stage and the funnel invariant
	// (scanned = dropped + kept) is unchanged.
	neighbors := data.NeighborsWithLabel(vf, ix.Tree.Query.Label(u))
	// The funnel is the histogram of verdicts below keep; it accumulates
	// in locals — one batched atomic add per frontier vertex, nothing on
	// the per-neighbor path.
	var seen [order.Pass + 1]int64
	for _, v := range neighbors {
		c := verdicts[v]
		seen[c]++
		if c >= keep {
			dst = append(dst, v)
		}
	}
	dropLabel := degree - int64(len(neighbors)) + seen[order.DropLabel]
	dropDegree := seen[order.DropDegree]
	var dropNLC int64
	if keep > order.DropNLC {
		dropNLC = seen[order.DropNLC]
	}
	if st := ix.opts.Stats; st != nil {
		st.RemoteReads.Add(1) // one adjacency-list fetch per frontier vertex
		st.FilteredLabel.Add(dropLabel)
		st.FilteredDegree.Add(dropDegree)
		st.FilteredNLC.Add(dropNLC)
	}
	if p := ix.opts.Profile; p != nil {
		vc := p.Vertex(int(u))
		vc.NeighborsScanned.Add(degree)
		vc.DroppedLabel.Add(dropLabel)
		vc.DroppedDegree.Add(dropDegree)
		vc.DroppedNLC.Add(dropNLC)
	}
	return dst
}

// valueUnion returns the sorted union of m's value lists — the candidate
// set its entries imply. Values are marked in a |V|-bit bitmap and read
// back in ascending order, O(values + |V|/64); the bitmap comes back
// empty and is reused by every union of the build. A union of fewer than
// |V|/512 values — the incremental mode's per-cluster builds, which touch
// a sliver of the graph each — costs less to sort than the bitmap's two
// passes over its words, and must not scale with the graph.
func (ix *Index) valueUnion(m *CandMap) []graph.VertexID {
	total := m.CandidateEdges()
	if total*512 < int64(ix.Data.NumVertices()) {
		all := make([]graph.VertexID, 0, total)
		m.ForEach(func(_ graph.VertexID, vals []graph.VertexID) { all = append(all, vals...) })
		slices.Sort(all)
		return slices.Compact(all)
	}
	if ix.marks == nil {
		ix.marks = bitset.New(ix.Data.NumVertices())
	}
	m.ForEach(func(_ graph.VertexID, vals []graph.VertexID) {
		for _, v := range vals {
			ix.marks.Set(v)
		}
	})
	return ix.marks.Drain(make([]graph.VertexID, 0, ix.marks.Count()))
}

// removeCandidate deletes data vertex v from query vertex u's candidate
// structures and cascades: the key v disappears from every already-built
// child structure keyed by u's candidates, and if removing v empties a TE
// value list of u, the corresponding parent key is removed recursively.
func (ix *Index) removeCandidate(u graph.VertexID, v graph.VertexID) {
	node := &ix.Nodes[u]
	// Drop from the candidate union.
	i := sort.Search(len(node.Cands), func(i int) bool { return node.Cands[i] >= v })
	if i == len(node.Cands) || node.Cands[i] != v {
		return // already removed
	}
	node.Cands = append(node.Cands[:i], node.Cands[i+1:]...)
	if p := ix.opts.Profile; p != nil {
		// Every deletion counts here; refine() separately counts the
		// refinement-initiated ones, so cascades = removed - refined.
		p.Vertex(int(u)).AddRemoved(1)
	}

	// Drop v wherever it appears as a value of u's own structures.
	var emptied []graph.VertexID
	emptied = node.TE.DeleteValue(v, emptied)
	for j := range node.NTE {
		node.NTE[j].DeleteValue(v, nil)
	}

	// Drop the key v from children keyed by u's candidates.
	tree := ix.Tree
	for _, uc := range tree.Children[u] {
		ix.Nodes[uc].TE.Delete(v)
	}
	for _, ref := range ix.nteChildIdx[u] {
		ix.Nodes[ref.child].NTE[ref.slot].Delete(v)
	}
	if node.Card != nil {
		delete(node.Card, v)
	}

	// A TE key of u whose value list became empty means that parent
	// candidate can no longer match u's parent: cascade upward.
	if tree.Parent[u] != order.NoParent {
		up := graph.VertexID(tree.Parent[u])
		for _, key := range emptied {
			node.TE.Delete(key)
			ix.removeCandidate(up, key)
		}
	}
}

// optimisticCardinalities fills Card from TE sizes without pruning; used
// when refinement is disabled so FGD decomposition still has a signal.
func (ix *Index) optimisticCardinalities() {
	tree := ix.Tree
	for i := len(tree.Order) - 1; i >= 0; i-- {
		u := tree.Order[i]
		node := &ix.Nodes[u]
		node.Card = make(map[graph.VertexID]int64, len(node.Cands))
		if len(tree.Children[u]) == 0 {
			for _, v := range node.Cands {
				node.Card[v] = 1
			}
			continue
		}
		for _, v := range node.Cands {
			card := int64(1)
			for _, uc := range tree.Children[u] {
				var sum int64
				for _, vc := range ix.Nodes[uc].TE.Get(v) {
					sum = satAdd(sum, ix.Nodes[uc].Card[vc])
				}
				card = satMul(card, sum)
				if card == 0 {
					break
				}
			}
			node.Card[v] = card
		}
	}
}
