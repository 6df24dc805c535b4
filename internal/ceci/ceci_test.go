package ceci_test

import (
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/reference"
	"ceci/internal/stats"
)

// buildFig1 preprocesses the paper's running example with the root forced
// to u1, matching the worked example of Sections 2–4.
func buildFig1(t *testing.T, opts ceci.Options) (*ceci.Index, *order.QueryTree) {
	t.Helper()
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0, Heuristic: order.BFSOrder})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	return ceci.Build(data, tree, opts), tree
}

func ids(vs ...int) []graph.VertexID {
	out := make([]graph.VertexID, len(vs))
	for i, v := range vs {
		out[i] = gen.Fig1V(v)
	}
	return out
}

func eqIDs(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestFig1QueryTreeShape(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0})
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 0 {
		t.Fatalf("root = u%d, want u1", tree.Root+1)
	}
	// BFS order u1, u2, u3, u4, u5.
	want := []graph.VertexID{0, 1, 2, 3, 4}
	if !eqIDs(tree.Order, want) {
		t.Fatalf("order = %v, want %v", tree.Order, want)
	}
	// Tree edges: (u1,u2), (u1,u3), (u2,u4), (u3,u5); NTE: (u2,u3), (u3,u4).
	if tree.Parent[1] != 0 || tree.Parent[2] != 0 || tree.Parent[3] != 1 || tree.Parent[4] != 2 {
		t.Fatalf("parents = %v", tree.Parent)
	}
	if got := tree.NTECount(); got != 2 {
		t.Fatalf("NTE count = %d, want 2", got)
	}
	if !eqIDs(tree.NTEParents[2], []graph.VertexID{1}) {
		t.Fatalf("NTE parents of u3 = %v, want [u2]", tree.NTEParents[2])
	}
	if !eqIDs(tree.NTEParents[3], []graph.VertexID{2}) {
		t.Fatalf("NTE parents of u4 = %v, want [u3]", tree.NTEParents[3])
	}
}

func TestFig1PivotsAndFiltering(t *testing.T) {
	ix, _ := buildFig1(t, ceci.Options{})
	// After the v8 NLC prune cascades out the v2 cluster and refinement
	// removes nothing at the root, only v1 remains as a pivot.
	if want := ids(1); !eqIDs(ix.Pivots(), want) {
		t.Fatalf("pivots = %v, want %v", ix.Pivots(), want)
	}
}

func TestFig1TEStructureBeforeRefinement(t *testing.T) {
	ix, _ := buildFig1(t, ceci.Options{SkipRefinement: true})
	// TE of u2 under v1: {v3, v5, v7}; the v2 entry disappears with the
	// cluster cascade.
	if got := ix.IDsAt(1, ceci.TESlot, gen.Fig1V(1)); !eqIDs(got, ids(3, 5, 7)) {
		t.Fatalf("TE(u2)[v1] = %v, want [v3 v5 v7]", got)
	}
	if got := ix.IDsAt(1, ceci.TESlot, gen.Fig1V(2)); got != nil {
		t.Fatalf("TE(u2)[v2] = %v, want removed", got)
	}
	// TE of u3 under v1: {v4, v6}.
	if got := ix.IDsAt(2, ceci.TESlot, gen.Fig1V(1)); !eqIDs(got, ids(4, 6)) {
		t.Fatalf("TE(u3)[v1] = %v, want [v4 v6]", got)
	}
	// NTE of u3 (from u2): <v3,{v4}>, <v5,{v4,v6}>, <v7,{v6}> — v8 is
	// pruned by NLC so it never shows up as a value.
	if got := ix.IDsAt(2, 0, gen.Fig1V(3)); !eqIDs(got, ids(4)) {
		t.Fatalf("NTE(u3)[v3] = %v, want [v4]", got)
	}
	if got := ix.IDsAt(2, 0, gen.Fig1V(5)); !eqIDs(got, ids(4, 6)) {
		t.Fatalf("NTE(u3)[v5] = %v, want [v4 v6]", got)
	}
	if got := ix.IDsAt(2, 0, gen.Fig1V(7)); !eqIDs(got, ids(6)) {
		t.Fatalf("NTE(u3)[v7] = %v, want [v6]", got)
	}
}

func TestFig1RefinementPrunesV7(t *testing.T) {
	ix, _ := buildFig1(t, ceci.Options{})
	// Reverse-BFS refinement: v7's only u4-child v15 is not among the
	// NTE values of u4, so card(u2, v7) = 0 and v7 disappears.
	if got := ix.IDsAt(1, ceci.TESlot, gen.Fig1V(1)); !eqIDs(got, ids(3, 5)) {
		t.Fatalf("refined TE(u2)[v1] = %v, want [v3 v5]", got)
	}
	// The <v7, {v6}> NTE entry of u3 goes with it (Section 3.3: removed
	// "although it has the valid cardinality of one for v6").
	if got := ix.IDsAt(2, 0, gen.Fig1V(7)); got != nil {
		t.Fatalf("NTE(u3)[v7] = %v, want removed", got)
	}
}

func TestFig1ClusterCardinality(t *testing.T) {
	ix, _ := buildFig1(t, ceci.Options{})
	// card(u1,v1) = Σcard(u2,·) × Σcard(u3,·) = (1+1)·(1+1) = 4: the
	// product-of-sums formula (Section 3.3) is an upper bound on the two
	// true embeddings because it ignores cross-branch NTE consistency.
	if !slices.Equal(ix.Pivots(), []graph.VertexID{gen.Fig1V(1)}) {
		t.Fatalf("pivots = %v, want v1 alone", ix.Pivots())
	}
	if got := ix.ClusterCardinality(0); got != 4 {
		t.Fatalf("cardinality(u1, v1) = %d, want 4", got)
	}
	if got := ix.TotalCardinality(); got != 4 {
		t.Fatalf("total cardinality = %d, want 4", got)
	}
}

func TestFig1FilterCounters(t *testing.T) {
	st := &stats.Counters{}
	ix, _ := buildFig1(t, ceci.Options{Stats: st})
	if st.FilteredNLC.Load() == 0 {
		t.Error("expected NLC filter activity (v8 must be pruned)")
	}
	if st.FilteredRefine.Load() == 0 {
		t.Error("expected refinement prunes (v7 must be pruned)")
	}
	if ix.SizeBytes() <= 0 {
		t.Error("index has no candidate edges to account for")
	}
}

func TestIndexSizeAccounting(t *testing.T) {
	ix, _ := buildFig1(t, ceci.Options{})
	if ix.SizeBytes() != 8*ix.UniqueCandidateEdges() {
		t.Fatalf("SizeBytes %d != 8*UniqueCandidateEdges %d", ix.SizeBytes(), ix.UniqueCandidateEdges())
	}
	if ix.UniqueCandidateEdges() > ix.CandidateEdges() {
		t.Fatalf("unique edges %d exceed stored pairs %d", ix.UniqueCandidateEdges(), ix.CandidateEdges())
	}
	if ix.PhysicalBytes() <= 0 {
		t.Fatal("physical bytes not positive")
	}
	if ix.TheoreticalBytes() <= ix.SizeBytes() {
		t.Fatalf("theoretical %d should exceed actual %d on this fixture",
			ix.TheoreticalBytes(), ix.SizeBytes())
	}
}

// TestCompleteness is the paper's correctness property (Section 3.5): no
// true embedding is lost by filtering and refinement. For every embedding
// found by the oracle, each (parent-match, child-match) pair must be
// present in the corresponding TE/NTE candidate structure.
func TestCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 60; trial++ {
		data := randomGraph(rng, 14, 28, 3)
		query, err := gen.DFSQuery(data, 2+rng.Intn(4), rng)
		if err != nil {
			continue
		}
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		embs := reference.FindAll(data, query, reference.Options{})
		for _, emb := range embs {
			checkEmbeddingInIndex(t, ix, tree, emb)
		}
	}
}

func checkEmbeddingInIndex(t *testing.T, ix *ceci.Index, tree *order.QueryTree, emb []graph.VertexID) {
	t.Helper()
	for _, u := range tree.Order[1:] {
		up := graph.VertexID(tree.Parent[u])
		vals := ix.IDsAt(u, ceci.TESlot, emb[up])
		if !contains(vals, emb[u]) {
			t.Fatalf("completeness violated: embedding %v, TE(u%d)[%d] = %v misses %d",
				emb, u, emb[up], vals, emb[u])
		}
		for j, un := range tree.NTEParents[u] {
			vals := ix.IDsAt(u, j, emb[un])
			if !contains(vals, emb[u]) {
				t.Fatalf("completeness violated: embedding %v, NTE(u%d)[%d] = %v misses %d",
					emb, u, emb[un], vals, emb[u])
			}
		}
	}
}

// TestCardinalityUpperBound: the refined cluster cardinality must bound
// the number of embeddings in that cluster from above (Section 4.3).
func TestCardinalityUpperBound(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		data := randomGraph(rng, 12, 30, 2)
		query, err := gen.DFSQuery(data, 3+rng.Intn(3), rng)
		if err != nil {
			continue
		}
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		// Count raw embeddings (no symmetry breaking) per pivot.
		perPivot := map[graph.VertexID]int64{}
		reference.ForEach(data, query, reference.Options{}, func(emb []graph.VertexID) bool {
			perPivot[emb[tree.Root]]++
			return true
		})
		for i, pivot := range ix.Pivots() {
			if card, n := ix.ClusterCardinality(i), perPivot[pivot]; card < n {
				t.Fatalf("trial %d: cluster %d cardinality %d < true embeddings %d",
					trial, pivot, card, n)
			}
		}
	}
}

// TestRefineRoundsMonotone: extra refinement rounds never grow the index.
func TestRefineRoundsMonotone(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	data := randomGraph(rng, 40, 140, 3)
	query, err := gen.DFSQuery(data, 5, rng)
	if err != nil {
		t.Skip("no query region")
	}
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	prev := int64(-1)
	for rounds := 1; rounds <= 3; rounds++ {
		ix := ceci.Build(data, tree, ceci.Options{RefineRounds: rounds})
		size := ix.CandidateEdges()
		if prev >= 0 && size > prev {
			t.Fatalf("rounds=%d grew index: %d > %d", rounds, size, prev)
		}
		prev = size
	}
}

func TestSkipRefinementKeepsCompleteness(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	data := randomGraph(rng, 14, 30, 2)
	query, err := gen.DFSQuery(data, 4, rng)
	if err != nil {
		t.Skip("no query region")
	}
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix := ceci.Build(data, tree, ceci.Options{SkipRefinement: true})
	for _, emb := range reference.FindAll(data, query, reference.Options{}) {
		checkEmbeddingInIndex(t, ix, tree, emb)
	}
	// Optimistic cardinalities must still be positive for live pivots.
	for i, p := range ix.Pivots() {
		if ix.ClusterCardinality(i) < 0 {
			t.Fatalf("negative cardinality for pivot %d", p)
		}
	}
}

func TestBuildParallelMatchesSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	data := randomGraph(rng, 300, 1500, 4)
	query, err := gen.DFSQuery(data, 5, rng)
	if err != nil {
		t.Skip("no query region")
	}
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	serial := ceci.Build(data, tree, ceci.Options{Workers: 1})
	parallel := ceci.Build(data, tree, ceci.Options{Workers: 8})
	if serial.CandidateEdges() != parallel.CandidateEdges() {
		t.Fatalf("parallel build diverged: %d vs %d edges",
			parallel.CandidateEdges(), serial.CandidateEdges())
	}
	if !eqIDs(serial.Pivots(), parallel.Pivots()) {
		t.Fatalf("pivots diverged: %v vs %v", parallel.Pivots(), serial.Pivots())
	}
}

// randomGraph builds a connected-ish random labeled graph for fuzz-style
// cross-validation.
func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
	// A random spanning path keeps most of the graph connected so DFS
	// queries can grow.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VertexID(perm[i-1]), graph.VertexID(perm[i]))
	}
	for i := 0; i < m; i++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	return b.MustBuild()
}

func contains(vs []graph.VertexID, x graph.VertexID) bool {
	i := sort.Search(len(vs), func(i int) bool { return vs[i] >= x })
	return i < len(vs) && vs[i] == x
}
