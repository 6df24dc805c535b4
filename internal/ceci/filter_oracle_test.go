package ceci

import (
	"bytes"
	"fmt"
	"reflect"
	"runtime"
	"slices"
	"testing"
	"weak"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/stats"
)

// The oracle: index construction as it stood before the verdict tables —
// the label / degree / NLC filters evaluated per candidate edge against a
// materialized signature, candidate unions by gather-sort-dedupe. It
// shares only the parts of the build the tables did not touch (buildNTE,
// cascade deletion, cardinalities, Freeze), so every table read, the
// NLC-from-runs identity and the bitmap union are all on the other side
// of the comparison.

// refVerdict reports the first stage that drops v for u, in the builder's
// stage order; v already carries u's primary label.
func refVerdict(data, q *graph.Graph, u, v graph.VertexID, skipNLC bool) order.Verdict {
	for _, l := range q.Labels(u)[1:] {
		if !data.HasLabel(v, l) {
			return order.DropLabel
		}
	}
	if data.Degree(v) < q.Degree(u) {
		return order.DropDegree
	}
	if !skipNLC && !graph.NLCOf(data, v).Covers(graph.NLCOf(q, u)) {
		return order.DropNLC
	}
	return order.Pass
}

func refCandidates(data, q *graph.Graph, u graph.VertexID) []graph.VertexID {
	var out []graph.VertexID
	for _, v := range data.VerticesWithLabel(q.Label(u)) {
		if refVerdict(data, q, u, v, false) == order.Pass {
			out = append(out, v)
		}
	}
	return out
}

// refFilterNeighbors is the per-edge filter loop, funnel counters included.
func refFilterNeighbors(ix *Index, vf, u graph.VertexID) []graph.VertexID {
	q, data := ix.Tree.Query, ix.Data
	var out []graph.VertexID
	var dropLabel, dropDegree, dropNLC int64
	for _, v := range data.Neighbors(vf) {
		if !data.HasLabel(v, q.Label(u)) {
			dropLabel++
			continue
		}
		switch refVerdict(data, q, u, v, ix.opts.SkipNLCFilter) {
		case order.DropLabel:
			dropLabel++
		case order.DropDegree:
			dropDegree++
		case order.DropNLC:
			dropNLC++
		default:
			out = append(out, v)
		}
	}
	if st := ix.opts.Stats; st != nil {
		st.RemoteReads.Add(1)
		st.FilteredLabel.Add(dropLabel)
		st.FilteredDegree.Add(dropDegree)
		st.FilteredNLC.Add(dropNLC)
	}
	if p := ix.opts.Profile; p != nil {
		vc := p.Vertex(int(u))
		vc.NeighborsScanned.Add(int64(data.Degree(vf)))
		vc.DroppedLabel.Add(dropLabel)
		vc.DroppedDegree.Add(dropDegree)
		vc.DroppedNLC.Add(dropNLC)
	}
	return out
}

func refUnion(m *CandMap) []graph.VertexID {
	var all []graph.VertexID
	m.ForEach(func(_ graph.VertexID, vals []graph.VertexID) { all = append(all, vals...) })
	slices.Sort(all)
	return slices.Compact(all)
}

func referenceBuild(data *graph.Graph, tree *order.QueryTree, opts Options) *Index {
	if opts.RefineRounds <= 0 {
		opts.RefineRounds = 1
	}
	ix := &Index{Data: data, Tree: tree.WithFilter(nil), Nodes: make([]Node, tree.NumVertices()), opts: opts}
	ix.indexNTEChildren()
	if p := opts.Profile; p != nil {
		ix.InitProfile(p)
	}
	if opts.Pivots != nil {
		pivots := slices.Clone(opts.Pivots)
		slices.Sort(pivots)
		ix.Nodes[tree.Root].Cands = slices.Compact(pivots)
	} else {
		ix.Nodes[tree.Root].Cands = refCandidates(data, tree.Query, tree.Root)
	}
	for _, u := range tree.Order[1:] {
		up := graph.VertexID(tree.Parent[u])
		node := &ix.Nodes[u]
		var dead []graph.VertexID
		for _, vf := range ix.Nodes[up].Cands {
			vals := refFilterNeighbors(ix, vf, u)
			if len(vals) == 0 {
				dead = append(dead, vf)
				if opts.Stats != nil {
					opts.Stats.FilteredCascade.Add(1)
				}
				continue
			}
			node.TE.AppendKey(vf, vals)
		}
		node.Cands = refUnion(&node.TE)
		for _, vf := range dead {
			ix.removeCandidate(up, vf)
		}
		ix.buildNTE(u)
	}
	if opts.SkipRefinement {
		ix.optimisticCardinalities()
	}
	for round := 0; round < opts.RefineRounds && !opts.SkipRefinement; round++ {
		for i := len(tree.Order) - 1; i >= 0; i-- {
			u := tree.Order[i]
			node := &ix.Nodes[u]
			node.Card = make(map[graph.VertexID]int64, len(node.Cands))
			unions := make([][]graph.VertexID, len(node.NTE))
			for j := range node.NTE {
				unions[j] = refUnion(&node.NTE[j])
			}
			for _, v := range slices.Clone(node.Cands) {
				card := ix.cardinalityOf(u, v, unions)
				if card == 0 {
					if opts.Stats != nil {
						opts.Stats.FilteredRefine.Add(1)
					}
					if p := opts.Profile; p != nil {
						p.Vertex(int(u)).AddRefined(1)
					}
					ix.removeCandidate(u, v)
					continue
				}
				node.Card[v] = card
			}
		}
	}
	ix.Freeze()
	if opts.Stats != nil {
		opts.Stats.IndexBytes.Store(ix.SizeBytes())
	}
	if p := opts.Profile; p != nil {
		ix.recordShape(p)
	}
	return ix
}

// instrumented returns opts with fresh Stats and Profile sinks.
func instrumented(opts Options) Options {
	opts.Stats = &stats.Counters{}
	opts.Profile = prof.New()
	return opts
}

func serialized(t *testing.T, ix *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := ix.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// assertSameBuild holds got to want: candidate sets, the serialized index
// byte for byte, the paper-accounting size, every filter-funnel counter
// and the profiler's whole per-vertex table (NeighborsScanned, Dropped*,
// refine/cascade deletions, TE/NTE shape).
func assertSameBuild(t *testing.T, name string, got, want *Index, gotOpts, wantOpts Options) {
	t.Helper()
	for u := range want.Nodes {
		if !slices.Equal(got.Nodes[u].Cands, want.Nodes[u].Cands) {
			t.Fatalf("%s: Cands(u%d) = %v, want %v", name, u, got.Nodes[u].Cands, want.Nodes[u].Cands)
		}
	}
	if !bytes.Equal(serialized(t, got), serialized(t, want)) {
		t.Fatalf("%s: serialized indexes differ", name)
	}
	if got.SizeBytes() != want.SizeBytes() {
		t.Fatalf("%s: SizeBytes %d, want %d", name, got.SizeBytes(), want.SizeBytes())
	}
	g, w := gotOpts.Stats, wantOpts.Stats
	for _, c := range []struct {
		name      string
		got, want int64
	}{
		{"FilteredLabel", g.FilteredLabel.Load(), w.FilteredLabel.Load()},
		{"FilteredDegree", g.FilteredDegree.Load(), w.FilteredDegree.Load()},
		{"FilteredNLC", g.FilteredNLC.Load(), w.FilteredNLC.Load()},
		{"FilteredCascade", g.FilteredCascade.Load(), w.FilteredCascade.Load()},
		{"FilteredRefine", g.FilteredRefine.Load(), w.FilteredRefine.Load()},
		{"IndexBytes", g.IndexBytes.Load(), w.IndexBytes.Load()},
		{"RemoteReads", g.RemoteReads.Load(), w.RemoteReads.Load()},
	} {
		if c.got != c.want {
			t.Fatalf("%s: Stats.%s = %d, want %d", name, c.name, c.got, c.want)
		}
	}
	gp, wp := gotOpts.Profile.Snapshot().Vertices, wantOpts.Profile.Snapshot().Vertices
	if !reflect.DeepEqual(gp, wp) {
		t.Fatalf("%s: profiles differ:\n got %+v\nwant %+v", name, gp, wp)
	}
}

// oraclePair is seed's data/query pair. Every third seed re-labels the
// data with up to three labels per vertex, and every sixth also gives
// query vertices a second label, so the extra-label stage and the
// multi-label NLC counts are exercised.
func oraclePair(seed int64) (data, query *graph.Graph) {
	data, query = gen.RandomPair(seed)
	if seed%3 != 0 {
		return data, query
	}
	labels := 2 + int(seed%4)
	data = gen.WithRandomMultiLabels(data, labels, 3, seed)
	rng := gen.NewRNG(seed)
	query, err := gen.DFSQuery(data, query.NumVertices(), rng)
	if err != nil {
		panic(err)
	}
	if seed%6 == 0 {
		b := graph.NewBuilder(query.NumVertices())
		for u := 0; u < query.NumVertices(); u++ {
			b.SetLabel(graph.VertexID(u), query.Label(graph.VertexID(u)))
			if rng.Intn(2) == 0 {
				b.AddExtraLabel(graph.VertexID(u), graph.Label(rng.Intn(labels)))
			}
		}
		query.Edges(func(a, c graph.VertexID) bool {
			b.AddEdge(a, c)
			return true
		})
		query = b.MustBuild()
	}
	return data, query
}

// TestBuildMatchesPerEdgeFilterOracle: Figure 1 and 240 seeded pairs,
// each under the default build, the NLC and refinement ablations, two
// refinement rounds, and a pivot-restricted (shard / cluster style)
// build over every other root candidate.
func TestBuildMatchesPerEdgeFilterOracle(t *testing.T) {
	check := func(name string, data, query *graph.Graph) {
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		everyOther := []graph.VertexID{} // non-nil: restricted even when empty
		for i, v := range refCandidates(data, query, tree.Root) {
			if i%2 == 0 {
				everyOther = append(everyOther, v)
			}
		}
		for _, v := range []struct {
			name string
			opts Options
		}{
			{"default", Options{}},
			{"skip-nlc", Options{SkipNLCFilter: true}},
			{"skip-refine", Options{SkipRefinement: true}},
			{"two-rounds", Options{RefineRounds: 2}},
			{"pivots", Options{Pivots: everyOther}},
		} {
			gotOpts, wantOpts := instrumented(v.opts), instrumented(v.opts)
			got := Build(data, tree, gotOpts)
			want := referenceBuild(data, tree, wantOpts)
			assertSameBuild(t, name+"/"+v.name, got, want, gotOpts, wantOpts)
		}
	}
	check("fig1", gen.Fig1Data(), gen.Fig1Query())
	multi := 0
	for seed := int64(0); seed < 240; seed++ {
		data, query := oraclePair(seed)
		if data.NumLabels() > 1 && seed%3 == 0 {
			multi++
		}
		check(fmt.Sprintf("seed%d", seed), data, query)
	}
	if multi < 40 {
		t.Fatalf("only %d multi-label pairs", multi)
	}
}

// denseMultiLabelPair is large enough that frontiers exceed parallelFor's
// serial cutoff, so Workers > 1 really partitions the expansion.
func denseMultiLabelPair(t *testing.T) (data, query *graph.Graph) {
	t.Helper()
	data = gen.WithRandomMultiLabels(gen.ErdosRenyi(700, 9000, 11), 5, 3, 12)
	query, err := gen.DFSQuery(data, 6, gen.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	return data, query
}

// TestBuildWorkersByteEqual: one worker and four produce the same bytes,
// counters and profile (run under -race in CI: the workers share the
// verdict tables read-only).
func TestBuildWorkersByteEqual(t *testing.T) {
	data, query := denseMultiLabelPair(t)
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	oneOpts, fourOpts := instrumented(Options{Workers: 1}), instrumented(Options{Workers: 4})
	one, four := Build(data, tree, oneOpts), Build(data, tree, fourOpts)
	if len(one.Pivots()) < 64 {
		t.Fatalf("only %d pivots: the parallel path did not run", len(one.Pivots()))
	}
	assertSameBuild(t, "workers 4 vs 1", four, one, fourOpts, oneOpts)
	refOpts := instrumented(Options{})
	assertSameBuild(t, "workers 1 vs oracle", one, referenceBuild(data, tree, refOpts), oneOpts, refOpts)
}

// TestBuildOnAnotherGraphRecomputesFilter: the tables on a tree are keyed
// by the data graph Preprocess ran on. A build against a different graph
// (cluster/diskshared preprocesses on a region view and builds on each
// machine's own view; a shard part is its own graph) must not read them.
func TestBuildOnAnotherGraphRecomputesFilter(t *testing.T) {
	data, query := denseMultiLabelPair(t)
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	// Same vertices and edges, different labels: every stale verdict that
	// mattered would change the index.
	other := gen.WithRandomMultiLabels(data, 5, 3, 99)
	gotOpts, wantOpts := instrumented(Options{}), instrumented(Options{})
	got := Build(other, tree, gotOpts)
	assertSameBuild(t, "other graph", got, referenceBuild(other, tree, wantOpts), gotOpts, wantOpts)
	staleOpts := instrumented(Options{})
	stale := referenceBuild(data, tree, staleOpts)
	if bytes.Equal(serialized(t, got), serialized(t, stale)) {
		t.Fatal("the two graphs index identically: the test cannot tell a stale table from a fresh one")
	}
}

// TestFrozenIndexDropsFilter: a finished index — what a cache retains —
// references neither the verdict tables nor the tree that carries them,
// and the tree it does retain is otherwise the caller's.
func TestFrozenIndexDropsFilter(t *testing.T) {
	data, query := denseMultiLabelPair(t)
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	filter := weak.Make(tree.Filter(data))
	ix := Build(data, tree, Options{})
	if ix.Tree == tree || !slices.Equal(ix.Tree.Order, tree.Order) || ix.Tree.Root != tree.Root {
		t.Fatal("index must retain a detached copy of the caller's tree")
	}
	tree = nil
	for i := 0; i < 3 && filter.Value() != nil; i++ {
		runtime.GC()
	}
	if filter.Value() != nil {
		t.Fatal("verdict tables still reachable with only the frozen index alive")
	}
	runtime.KeepAlive(ix)
}
