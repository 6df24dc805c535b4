package ceci

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ceci/internal/bitset"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/prof"
)

// Build constructs the CECI for (data, tree) following Algorithm 1:
// BFS-ordered frontier expansion with label / degree / NLC filters for
// both tree-edge and non-tree-edge candidates, empty-entry cascade
// deletion, and (unless disabled) the reverse-BFS refinement of
// Algorithm 2. It returns nil where BuildCtx would return an error.
func Build(data *graph.Graph, tree *order.QueryTree, opts Options) *Index {
	ix, _ := BuildCtx(context.Background(), data, tree, opts)
	return ix
}

// BuildCtx is Build with cancellation: the construction observes ctx at
// frontier-chunk, query-vertex, refinement-level and cascade-level
// granularity and aborts promptly once the deadline passes or the context
// is cancelled, returning a nil index and the context's error. The check
// is one relaxed atomic load — workers never block on the context — so
// the uncancelled build costs the same as Build. The only other error is
// a TE or NTE structure of more than 2^32-1 candidate edges, which the
// 32-bit offsets column cannot address.
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
	ix, err := build(ctx, data, tree, opts, cancelled)
	if cancelled != nil && cancelled.Load() {
		// Aborted, or fired as the build finished: the context's error.
		return nil, context.Cause(ctx)
	}
	return ix, err
}

// builder is the state of one construction: the index being filled, the
// TE and NTE maps still open to cascade deletion, and the scratch every
// expansion reuses. Nothing of it outlives build.
type builder struct {
	ix *Index
	// te[u] and nte[u][j] become ix.Nodes[u].TE and .NTE[j] when build
	// compacts them.
	te  []mapBuilder
	nte [][]mapBuilder
	// keyedBy[u] lists the maps keyed by u's candidates: the TE of each
	// tree child and the NTE slot of each non-tree child.
	keyedBy [][]*mapBuilder
	// filter holds the LDF+NLC verdict tables.
	filter *order.Filter
	// cancelled, when non-nil, is flipped by BuildCtx's context watcher;
	// construction loops poll it and abort.
	cancelled *atomic.Bool
	// scratch holds the per-worker bins (§3.6), which hold every value
	// list of the build; lists is the frontier output table of views into
	// them, and runs the label run of every frontier vertex an expansion
	// reads.
	scratch []buildScratch
	lists   [][]graph.VertexID
	runs    [][]graph.VertexID
	// marks is valueUnion's |V|-bit scratch, pos the position table of the
	// one candidate column cardProducts or compact reads.
	marks bitset.Bits
	pos   *posTable
	// dead and emptied are the cascade's two sets: the one a level removes
	// and the TE keys that empties, which the next level removes.
	dead, emptied []graph.VertexID
	// cards[u] is u's cardinality column as refinement (or the optimistic
	// pass) computed it, parallel to its candidates: the parent's sums
	// read it, and build narrows it into the node's column (cardColumn).
	cards [][]int64
}

// build is the construction body. cancelled, when non-nil, is flipped by
// the context watcher; an aborted build returns no index and no error.
func build(ctx context.Context, data *graph.Graph, tree *order.QueryTree, opts Options, cancelled *atomic.Bool) (*Index, error) {
	// StartUnder parents the build span beneath the request's ambient
	// span (service queries) or trace context (remote machines) when the
	// context carries one; a bare Build stays a local root span.
	span := obs.StartUnder(ctx, opts.Tracer, "build",
		obs.Int("query_vertices", int64(tree.NumVertices())))
	defer span.End()
	b := newBuilder(data, tree, opts, cancelled)
	defer posTables.Put(b.pos)
	ix := b.ix
	tree = ix.Tree
	root := tree.Root
	// How much of the query's answer this index can hold: the clusters it
	// was restricted to, of the root candidates Preprocess counted.
	span.Annotate(obs.Int("pivots_covered", int64(len(ix.Nodes[root].Cands))),
		obs.Int("pivots_total", int64(tree.CandCount[root])))

	// Expand every non-root query vertex in matching order: first its
	// tree edge, then each incoming non-tree edge.
	esp := span.Child("expand", obs.Int("pivots", int64(len(ix.Nodes[root].Cands))))
	for _, u := range tree.Order[1:] {
		if b.isCancelled() {
			break
		}
		err := b.buildTE(u)
		if err == nil {
			err = b.buildNTE(u)
		}
		if err != nil {
			esp.End()
			return nil, err
		}
	}
	esp.End()

	switch {
	case b.isCancelled():
	case opts.SkipRefinement:
		b.optimisticCardinalities()
	default:
		rsp := span.Child("refine")
		b.refine()
		rsp.End()
	}
	if b.isCancelled() {
		return nil, nil
	}
	// Every candidate column is final: the maps become positions and the
	// cardinalities take the width they need.
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		node.Cands = fit(node.Cands)
		node.cards = cardColumn(b.cards[u])
		pos := b.pos.fill(node.Cands, data.NumVertices())
		node.TE = b.te[u].compact(ix.keySpace(graph.VertexID(u), teSlot), pos, len(node.Cands))
		for j := range node.NTE {
			node.NTE[j] = b.nte[u][j].compact(ix.keySpace(graph.VertexID(u), j), pos, len(node.Cands))
		}
	}
	ix.finish()
	if p := opts.Profile; p != nil {
		ix.recordShape(p)
	}
	return ix, nil
}

// InitProfile sizes p's per-vertex state for this index's query. The
// builder calls it before spawning workers and the enumerator before
// charging its funnel (a loaded index was never built under p).
// Idempotent, so a limited Match's prefix and complete builds share one
// collector and their funnel counters accumulate.
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

// recordShape records the surviving index shape — candidate counts and
// TE/NTE entry and candidate-edge totals — in the profile. Stores rather
// than adds: a limited Match builds a prefix and then the complete index
// into one collector, and the shape reported is the last one built, the
// index the matcher holds, while the funnel counters sum both builds.
func (ix *Index) recordShape(p *prof.Collector) {
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		vc := p.Vertex(u)
		vc.FinalCands.Store(int64(len(node.Cands)))
		vc.TEEntries.Store(int64(node.TE.Len()))
		vc.TECandidates.Store(node.TE.CandidateEdges())
		vc.FlatBytes.Store(node.flatBytes())
		for j := range node.NTE {
			nc := vc.NTE(j)
			nc.Entries.Store(int64(node.NTE[j].Len()))
			nc.Candidates.Store(node.NTE[j].CandidateEdges())
		}
	}
}

// newBuilder returns the state of a construction of (data, tree) whose
// index holds the root's candidates — the cluster pivots — and nothing
// else yet. The caller returns b.pos to posTables when done.
func newBuilder(data *graph.Graph, tree *order.QueryTree, opts Options, cancelled *atomic.Bool) *builder {
	// The verdict tables stay with the builder: newIndex retains the tree
	// without them.
	filter := tree.Filter(data)
	ix := newIndex(data, tree, opts)
	tree = ix.Tree
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	b := &builder{
		ix:        ix,
		te:        make([]mapBuilder, len(ix.Nodes)),
		nte:       make([][]mapBuilder, len(ix.Nodes)),
		keyedBy:   make([][]*mapBuilder, len(ix.Nodes)),
		filter:    filter,
		cancelled: cancelled,
		scratch:   make([]buildScratch, workers),
		pos:       posTables.Get().(*posTable),
		cards:     make([][]int64, len(ix.Nodes)),
	}
	for u, parents := range tree.NTEParents {
		if p := tree.Parent[u]; p != order.NoParent {
			b.keyedBy[p] = append(b.keyedBy[p], &b.te[u])
		}
		b.nte[u] = make([]mapBuilder, len(parents))
		for j, p := range parents {
			b.keyedBy[p] = append(b.keyedBy[p], &b.nte[u][j])
		}
	}
	if p := opts.Profile; p != nil {
		ix.InitProfile(p)
	}

	// Root candidates = cluster pivots.
	root := tree.Root
	if opts.Pivots != nil {
		// Candidate sets are sorted everywhere else (binary searches, set
		// operations, ascending frontier expansion); an unsorted caller
		// must not break them.
		pivots := slices.Clone(opts.Pivots)
		slices.Sort(pivots)
		ix.Nodes[root].Cands = slices.Compact(pivots)
	} else {
		ix.Nodes[root].Cands = b.filter.Candidates(root)
	}
	return b
}

// isCancelled reports whether the construction's context fired. The
// flag is nil for non-cancellable builds, so the check costs one nil
// compare on the Build path and one atomic load under BuildCtx.
func (b *builder) isCancelled() bool {
	return b.cancelled != nil && b.cancelled.Load()
}

// parallelFor runs fn(i, w) for i in [0, n) across the index's worker
// budget, pulling fixed-size chunks from a shared cursor — the paper's
// pull-based dynamic distribution with per-thread private bins (§3.6).
// w identifies the executing worker so fn can use its own scratch;
// beyond that, workers write only to their own output slots.
func (b *builder) parallelFor(n int, fn func(i, w int)) {
	workers := len(b.scratch)
	if workers > n {
		workers = n
	}
	if workers <= 1 || n < 64 {
		for i := 0; i < n; i++ {
			if i&63 == 0 && b.isCancelled() {
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
				if lo >= n || b.isCancelled() {
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

// expand runs one frontier expansion: every frontier vertex's run of
// label is read into b.runs, and list(i, run, dst) appends to dst — the
// free tail of the executing worker's chunk, with room for the whole run
// — the value list of frontier[i], in parallel. The keys with a non-empty
// list then go into m in frontier order, each with its list where the
// worker wrote it. It returns the table of every key's list, valid until
// the next expansion — unless the build was cancelled, when slots may be
// unfilled and nothing was added to m.
func (b *builder) expand(m *mapBuilder, frontier []graph.VertexID, label graph.Label, list func(i int, run, dst []graph.VertexID) []graph.VertexID) ([][]graph.VertexID, error) {
	b.runs = b.ix.Data.RunsWithLabel(frontier, label, b.runs)
	runs := b.runs
	if cap(b.lists) < len(frontier) {
		b.lists = make([][]graph.VertexID, len(frontier))
	}
	lists := b.lists[:len(frontier)]
	b.parallelFor(len(frontier), func(i, w int) {
		sc := &b.scratch[w]
		lists[i] = sc.claim(list(i, runs[i], sc.room(len(runs[i]))))
	})
	if b.isCancelled() {
		return nil, nil
	}
	nkeys, nvals := 0, int64(0)
	for _, vals := range lists {
		if len(vals) > 0 {
			nkeys++
			nvals += int64(len(vals))
		}
	}
	if nvals > maxArena {
		return nil, errArenaOverflow
	}
	m.alloc(nkeys)
	for i, vals := range lists {
		if len(vals) > 0 {
			m.add(frontier[i], vals)
		}
	}
	return lists, nil
}

// buildTE expands the frontier of u's parent, filtering neighbors into
// TE_Candidates of u (Algorithm 1). Frontier vertices whose expansion
// yields no candidate are cascaded out of the index.
func (b *builder) buildTE(u graph.VertexID) error {
	ix := b.ix
	up := graph.VertexID(ix.Tree.Parent[u])
	frontier := ix.Nodes[up].Cands

	// The LDF+NLC verdict of every data vertex against u was decided once
	// (order.Filter); expansion probes the table. The NLC ablation keeps
	// one more verdict instead of running a second filter.
	verdicts := b.filter.Verdicts(u)
	keep := order.Pass
	if ix.opts.SkipNLCFilter {
		keep = order.DropNLC
	}
	// Every frontier vertex's neighbors of u's primary label are sieved.
	lists, err := b.expand(&b.te[u], frontier, ix.Tree.Query.Label(u), func(i int, run, dst []graph.VertexID) []graph.VertexID {
		return ix.filterNeighborsInto(dst, run, frontier[i], u, verdicts, keep)
	})
	if err != nil {
		return fmt.Errorf("ceci: build: TE of query vertex %d: %w", u, err)
	}
	if b.isCancelled() {
		return nil
	}
	ix.Nodes[u].Cands = b.valueUnion(&b.te[u])
	// No tree-edge candidate under vf: vf cannot match up (Algorithm 1
	// lines 9-12). Collected first: the cascade shrinks the frontier
	// slice in place.
	dead := b.dead[:0]
	for i, vals := range lists {
		if len(vals) == 0 {
			dead = append(dead, frontier[i])
		}
	}
	if ix.opts.Stats != nil {
		ix.opts.Stats.FilteredCascade.Add(int64(len(dead)))
	}
	b.removeCandidates(up, dead)
	return nil
}

// buildNTE fills, for each non-tree edge (un, u), the NTE_Candidates of u
// keyed by un's candidates. Values are the intersection of the key's data
// adjacency with u's candidate set — neighbors failing the label/degree/
// NLC filters are already absent from Cands, so no re-filtering is needed.
func (b *builder) buildNTE(u graph.VertexID) error {
	ix := b.ix
	tree := ix.Tree
	cands := ix.Nodes[u].Cands
	if len(tree.NTEParents[u]) == 0 {
		return nil
	}
	// Every member of Cands carries u's labels, so intersecting with the
	// key's label partition (neighbors carrying u's primary label) is
	// equivalent to intersecting with its full adjacency — just over a
	// shorter left list. Unlabeled graphs fall through to Neighbors. Each
	// neighbor is asked "is it a candidate of u?" of u's position table:
	// one array read, where a merge or gallop over Cands searched.
	uLabel := tree.Query.Label(u)
	pos := b.pos.fill(cands, ix.Data.NumVertices())
	for j, un := range tree.NTEParents[u] {
		frontier := ix.Nodes[un].Cands
		lists, err := b.expand(&b.nte[u][j], frontier, uLabel, func(_ int, run, dst []graph.VertexID) []graph.VertexID {
			return pos.intersect(dst, run, cands)
		})
		if err != nil {
			return fmt.Errorf("ceci: build: NTE %d of query vertex %d: %w", j, u, err)
		}
		if b.isCancelled() {
			return nil
		}
		if ix.opts.Stats != nil {
			ix.opts.Stats.IntersectionOps.Add(int64(len(frontier)))
			ix.opts.Stats.RemoteReads.Add(int64(len(frontier)))
		}
		if p := ix.opts.Profile; p != nil {
			// Merge-intersection work: |adj_label(vn)| + |Cands(u)|
			// comparisons per frontier key (the label partition is what
			// was actually intersected), versus what each kept.
			var cmp, out int64
			for i, run := range b.runs {
				cmp += int64(len(run) + len(cands))
				out += int64(len(lists[i]))
			}
			nc := p.Vertex(int(u)).NTE(j)
			nc.BuildComparisons.Add(cmp)
			nc.BuildOutput.Add(out)
		}
	}
	return nil
}

// filterNeighborsInto keeps the neighbors of vf that are candidates of u —
// the label, degree, and NLC filters of Section 3.2, read off u's verdict
// table: a neighbor survives when its verdict is at least keep. neighbors
// is vf's run of u's primary label: only those are scanned, not the whole
// list label-tested, so the skipped complement is charged to the label
// stage and the funnel invariant (scanned = dropped + kept) is unchanged.
// Survivors are appended to dst (sorted ascending, since adjacency lists
// are sorted), whose capacity must take every neighbor: dst is the free
// tail of a worker's chunk, and the survivors stay there as the key's list.
func (ix *Index) filterNeighborsInto(dst, neighbors []graph.VertexID, vf, u graph.VertexID, verdicts []order.Verdict, keep order.Verdict) []graph.VertexID {
	// The funnel is the histogram of verdicts, counted in a register by
	// sieve a stretch of 2^16-1 neighbors at a time; one batched atomic add
	// per frontier vertex follows, nothing on the per-neighbor path is
	// shared.
	step := sieveSteps(keep)
	var seen [order.Pass]int64
	for rest := neighbors; len(rest) > 0; {
		chunk := rest[:min(len(rest), 1<<16-1)]
		rest = rest[len(chunk):]
		var lanes uint64
		dst, lanes = sieve(dst, chunk, verdicts, &step)
		for c := range seen {
			seen[c] += int64(lanes >> (16 * c) & 0xffff)
		}
	}
	st, p := ix.opts.Stats, ix.opts.Profile
	if st == nil && p == nil {
		return dst
	}
	// The label stage's drops are the rest of vf's adjacency: its degree
	// is a load from the CSR offsets, made only for a funnel that is kept.
	degree := int64(ix.Data.Degree(vf))
	dropLabel := degree - int64(len(neighbors)) + seen[order.DropLabel]
	dropDegree := seen[order.DropDegree]
	var dropNLC int64
	if keep > order.DropNLC {
		dropNLC = seen[order.DropNLC]
	}
	if st != nil {
		st.RemoteReads.Add(1) // one adjacency-list fetch per frontier vertex
		st.FilteredLabel.Add(dropLabel)
		st.FilteredDegree.Add(dropDegree)
		st.FilteredNLC.Add(dropNLC)
	}
	if p != nil {
		vc := p.Vertex(int(u))
		vc.NeighborsScanned.Add(degree)
		vc.DroppedLabel.Add(dropLabel)
		vc.DroppedDegree.Add(dropDegree)
		vc.DroppedNLC.Add(dropNLC)
	}
	return dst
}

// sieveSteps returns what each verdict adds to sieve's histogram word: 1
// in lane c for a verdict c below Pass, and 1 in lane 3 for a verdict of
// at least keep, so lane 3 counts the survivors.
func sieveSteps(keep order.Verdict) (step [order.Pass + 1]uint64) {
	for c := range step {
		if order.Verdict(c) < order.Pass {
			step[c] = 1 << (16 * c)
		}
		if order.Verdict(c) >= keep {
			step[c] |= 1 << 48
		}
	}
	return step
}

// sieve appends to dst, whose capacity must take them all, the members of
// vs that survive, and returns the histogram of their verdicts as the
// 16-bit lanes of one word, each verdict adding its sieveSteps entry. vs
// holds fewer than 2^16 vertices, so no lane carries into the next. Every
// vertex is written and the end advances by lane 3 of its step, so the
// loop has no branch on the verdict, and the histogram never leaves the
// register.
func sieve(dst, vs []graph.VertexID, verdicts []order.Verdict, step *[order.Pass + 1]uint64) ([]graph.VertexID, uint64) {
	n := len(dst)
	dst = dst[:n+len(vs)]
	var lanes uint64
	for _, v := range vs {
		s := step[verdicts[v]&3]
		lanes += s
		dst[n] = v
		n += int(s >> 48)
	}
	return dst[:n], lanes
}

// valueUnion returns the sorted union of m's value lists — the candidate
// set its entries imply. Values are marked in a |V|-bit bitmap and read
// back in ascending order, O(values + |V|/64); the bitmap comes back
// empty and is reused by every union of the build. A union of fewer than
// |V|/512 values costs less to sort than the bitmap's two passes over its
// words, and must not scale with the graph: one-cluster prefix builds — a
// limited Match's first index, a service cache entry's — touch a sliver
// of the graph and take that branch (EXPERIMENTS §PR 29 counts them).
func (b *builder) valueUnion(m *mapBuilder) []graph.VertexID {
	if n, total := b.ix.Data.NumVertices(), m.values(); total*512 < n {
		all := make([]graph.VertexID, 0, total)
		for _, list := range m.lists {
			all = append(all, list...)
		}
		slices.Sort(all)
		return slices.Compact(all)
	} else if b.marks == nil {
		b.marks = bitset.New(n)
	}
	for _, list := range m.lists {
		for _, v := range list {
			b.marks.Set(v)
		}
	}
	return b.marks.Drain(make([]graph.VertexID, 0, b.marks.Count()))
}

// removeCandidates deletes the ascending set dead of data vertices from
// query vertex u's candidate structures and cascades, a level at a time:
// the set leaves u's candidates in one merge, every value list of u's own
// structures in one pass per map, and — as keys — every already-built
// child structure keyed by u's candidates in one pass per map; the TE keys
// of u whose lists that emptied are parent candidates that can no longer
// match u's parent, so they are the set the next level removes. dead is
// taken over as builder scratch (the levels swap it with emptied). The
// cardinality columns are left alone: refine writes a node's column only
// once nothing later in the sweep can remove that node's candidates. A
// cancelled build stops between two levels; build then discards the index.
func (b *builder) removeCandidates(u graph.VertexID, dead []graph.VertexID) {
	for len(dead) > 0 && !b.isCancelled() {
		node := &b.ix.Nodes[u]
		before := len(node.Cands)
		node.Cands = node.Cands[:subtract(node.Cands, dead)]
		if p := b.ix.opts.Profile; p != nil {
			// Every deletion counts here; refine() separately counts the
			// refinement-initiated ones, so cascades = removed - refined.
			p.Vertex(int(u)).AddRemoved(int64(before - len(node.Cands)))
		}

		// Drop the set wherever its members are values of u's own
		// structures, and wherever they key a map. NTE keys that empty
		// stay, with empty lists, so each pass overwrites the last one's
		// emptied set and the TE pass's is the one that remains.
		emptied := b.emptied
		for j := range b.nte[u] {
			emptied = b.nte[u][j].deleteValues(dead, emptied[:0])
		}
		emptied = b.te[u].deleteValues(dead, emptied[:0])
		for _, m := range b.keyedBy[u] {
			m.deleteKeys(dead)
		}

		b.dead, b.emptied = emptied, dead
		up := b.ix.Tree.Parent[u]
		if up == order.NoParent {
			return
		}
		// The emptied keys leave te[u] at the next level: it is one of the
		// maps keyed by the parent's candidates.
		u, dead = graph.VertexID(up), emptied
	}
}
