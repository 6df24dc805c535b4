package order_test

import (
	"math/rand"
	"reflect"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

func TestFig1RootSelection(t *testing.T) {
	// On the Figure 1 fixture the cost function argmin |cand(u)|/deg(u)
	// picks u3 (2 candidates after LDF+NLC, degree 4 -> cost 0.5); the
	// paper's narrative forces u1, which tests use via ForcedRoot.
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 2 {
		t.Fatalf("root = u%d, want u3 (cost 2/4)", tree.Root+1)
	}
	if tree.CandCount[0] != 2 || tree.CandCount[2] != 2 {
		t.Fatalf("candidate counts = %v", tree.CandCount)
	}
}

func TestForcedRootValidation(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	if _, err := order.Preprocess(data, query, order.Options{ForcedRoot: 99}); err == nil {
		t.Fatal("out-of-range forced root accepted")
	}
}

func TestDisconnectedQueryRejected(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1)
	b.AddEdge(2, 3)
	query := b.MustBuild()
	data := gen.Fig1Data()
	if _, err := order.Preprocess(data, query, order.DefaultOptions()); err == nil {
		t.Fatal("disconnected query accepted")
	}
}

func TestTreeEdgeClassification(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0})
	if err != nil {
		t.Fatal(err)
	}
	// 4 tree edges + 2 non-tree edges = 6 query edges.
	if tree.TreeEdgeCount() != 4 || tree.NTECount() != 2 {
		t.Fatalf("tree=%d nte=%d", tree.TreeEdgeCount(), tree.NTECount())
	}
	// Every non-tree edge appears once as parent-side and once child-side.
	parentSide, childSide := 0, 0
	for u := range tree.NTEParents {
		childSide += len(tree.NTEParents[u])
		parentSide += len(tree.NTEChildren[u])
	}
	if parentSide != childSide || childSide != tree.NTECount() {
		t.Fatalf("NTE bookkeeping inconsistent: %d vs %d", parentSide, childSide)
	}
}

// TestOrdersAreTreeConsistent: every heuristic must place parents before
// children — the invariant CECI's index relies on.
func TestOrdersAreTreeConsistent(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	heuristics := []order.Heuristic{
		order.BFSOrder, order.LeastFrequent, order.PathRanked, order.EdgeRanked,
	}
	for trial := 0; trial < 40; trial++ {
		data := randomGraph(rng, 20, 50, 3)
		query, err := gen.DFSQuery(data, 2+rng.Intn(5), rng)
		if err != nil {
			continue
		}
		for _, h := range heuristics {
			tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: -1, Heuristic: h})
			if err != nil {
				t.Fatalf("trial %d %v: %v", trial, h, err)
			}
			if tree.Order[0] != tree.Root {
				t.Fatalf("%v: order does not start at root", h)
			}
			seen := make([]bool, query.NumVertices())
			for _, u := range tree.Order {
				if p := tree.Parent[u]; p != order.NoParent && !seen[p] {
					t.Fatalf("%v: vertex %d placed before its parent %d (order %v)", h, u, p, tree.Order)
				}
				seen[u] = true
			}
			// Pos must invert Order.
			for i, u := range tree.Order {
				if tree.Pos[u] != i {
					t.Fatalf("%v: Pos not inverse of Order", h)
				}
			}
			// NTE parents must precede their children in the order.
			for u := range tree.NTEParents {
				for _, p := range tree.NTEParents[u] {
					if tree.Pos[p] >= tree.Pos[u] {
						t.Fatalf("%v: NTE parent %d not before %d", h, p, u)
					}
				}
			}
		}
	}
}

func TestBFSDepths(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0})
	if err != nil {
		t.Fatal(err)
	}
	wantDepth := []int32{0, 1, 1, 2, 2}
	for u, d := range tree.Depth {
		if d != wantDepth[u] {
			t.Fatalf("depth[u%d] = %d, want %d", u+1, d, wantDepth[u])
		}
	}
}

func TestCandidateFilters(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	// u3 (label C, degree 4): v4, v6 pass; v8 lacks an E neighbor (NLC);
	// v10 fails the degree filter.
	f := order.NewFilter(data, query)
	got := f.Candidates(2)
	want := []graph.VertexID{gen.Fig1V(4), gen.Fig1V(6)}
	if len(got) != 2 || got[0] != want[0] || got[1] != want[1] {
		t.Fatalf("candidates(u3) = %v, want %v", got, want)
	}
	// The verdicts name the stage that dropped the other C vertices.
	verdicts := f.Verdicts(2)
	if verdicts[gen.Fig1V(8)] != order.DropNLC || verdicts[gen.Fig1V(10)] != order.DropDegree ||
		verdicts[gen.Fig1V(1)] != order.DropLabel || verdicts[gen.Fig1V(4)] != order.Pass {
		t.Fatalf("verdicts(u3): v8=%d v10=%d v1=%d v4=%d", verdicts[gen.Fig1V(8)],
			verdicts[gen.Fig1V(10)], verdicts[gen.Fig1V(1)], verdicts[gen.Fig1V(4)])
	}
}

func TestCandidateCountMatchesForEach(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < query.NumVertices(); u++ {
		if n := len(tree.Filter(data).Candidates(graph.VertexID(u))); tree.CandCount[u] != n {
			t.Fatalf("u%d: count %d != candidates %d", u+1, tree.CandCount[u], n)
		}
	}
}

func TestEmptyQueryRejected(t *testing.T) {
	data := gen.Fig1Data()
	b := graph.NewBuilder(1)
	single := b.MustBuild()
	// A single-vertex query is connected and should preprocess fine.
	tree, err := order.Preprocess(data, single, order.DefaultOptions())
	if err != nil {
		t.Fatalf("single vertex rejected: %v", err)
	}
	if len(tree.Order) != 1 {
		t.Fatal("single-vertex order wrong")
	}
}

func TestHeuristicStrings(t *testing.T) {
	names := map[order.Heuristic]string{
		order.BFSOrder:      "bfs",
		order.LeastFrequent: "least-frequent",
		order.PathRanked:    "path-ranked",
		order.EdgeRanked:    "edge-ranked",
	}
	for h, want := range names {
		if h.String() != want {
			t.Errorf("%d.String() = %q, want %q", h, h.String(), want)
		}
	}
}

// tieFixture builds a hub-and-leaves pair where two query leaves have
// identical candidate counts (a genuine heuristic tie) and one is
// strictly rarer: data is one label-0 hub adjacent to five label-1
// leaves and one label-2 leaf; the query is a label-0 hub with leaves
// u1 (label 1), u2 (label 1), u3 (label 2).
func tieFixture() (data, query *graph.Graph) {
	db := graph.NewBuilder(7)
	db.SetLabel(0, 0)
	for v := 1; v <= 5; v++ {
		db.SetLabel(graph.VertexID(v), 1)
		db.AddEdge(0, graph.VertexID(v))
	}
	db.SetLabel(6, 2)
	db.AddEdge(0, 6)

	qb := graph.NewBuilder(4)
	qb.SetLabel(0, 0)
	qb.SetLabel(1, 1)
	qb.SetLabel(2, 1)
	qb.SetLabel(3, 2)
	qb.AddEdge(0, 1)
	qb.AddEdge(0, 2)
	qb.AddEdge(0, 3)
	return db.MustBuild(), qb.MustBuild()
}

// TestTieBreakingDeterministic pins the documented tie rule: smallest
// score first, equal scores break to the smallest vertex ID. u1 and u2
// tie exactly (both label 1, five candidates each), so every heuristic
// must emit u1 before u2; the selective u3 leads under the
// selectivity-driven heuristics and trails in plain BFS child order.
func TestTieBreakingDeterministic(t *testing.T) {
	data, query := tieFixture()
	cases := []struct {
		h    order.Heuristic
		want []graph.VertexID
	}{
		{order.BFSOrder, []graph.VertexID{0, 1, 2, 3}},
		{order.LeastFrequent, []graph.VertexID{0, 3, 1, 2}},
		{order.PathRanked, []graph.VertexID{0, 3, 1, 2}},
		{order.EdgeRanked, []graph.VertexID{0, 3, 1, 2}},
	}
	for _, tc := range cases {
		tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0, Heuristic: tc.h})
		if err != nil {
			t.Fatalf("%v: %v", tc.h, err)
		}
		for i, u := range tc.want {
			if tree.Order[i] != u {
				t.Fatalf("%v: order = %v, want %v", tc.h, tree.Order, tc.want)
			}
		}
	}
}

// TestAllTiedFallsToVertexID: when every available vertex scores
// identically, the order must be ascending vertex ID — not an artifact
// of queue or sort internals.
func TestAllTiedFallsToVertexID(t *testing.T) {
	db := graph.NewBuilder(5)
	for v := 1; v <= 4; v++ {
		db.AddEdge(0, graph.VertexID(v))
	}
	data := db.MustBuild()
	qb := graph.NewBuilder(4)
	qb.AddEdge(0, 1)
	qb.AddEdge(0, 2)
	qb.AddEdge(0, 3)
	query := qb.MustBuild()
	for _, h := range order.Heuristics() {
		tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0, Heuristic: h})
		if err != nil {
			t.Fatalf("%v: %v", h, err)
		}
		for i, u := range tree.Order {
			if int(u) != i {
				t.Fatalf("%v: tied order = %v, want ascending IDs", h, tree.Order)
			}
		}
	}
}

func randomGraph(rng *rand.Rand, n, m, labels int) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
	}
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

// TestFilterSharingAndLifetime pins the verdict tables' two rules: query
// vertices the filters cannot tell apart share one table, and a tree
// hands out the tables Preprocess computed only for the graph it ran on.
func TestFilterSharingAndLifetime(t *testing.T) {
	data := gen.ChungLu(300, 6, 2.2, 3)
	query := gen.QG3() // unlabeled: vertices of equal degree are one class
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	f := tree.Filter(data)
	for u := 0; u < query.NumVertices(); u++ {
		for w := 0; w < u; w++ {
			a, b := f.Verdicts(graph.VertexID(u)), f.Verdicts(graph.VertexID(w))
			same := query.Degree(graph.VertexID(u)) == query.Degree(graph.VertexID(w))
			if (&a[0] == &b[0]) != same {
				t.Fatalf("u%d/u%d: tables shared = %v, equal class = %v", u, w, &a[0] == &b[0], same)
			}
		}
	}

	if tree.Filter(data) != f {
		t.Fatal("same data graph: the tree must reuse its tables")
	}
	other := gen.ChungLu(300, 6, 2.2, 4)
	if g := tree.Filter(other); g == f || !reflect.DeepEqual(g.Candidates(tree.Root), order.NewFilter(other, query).Candidates(tree.Root)) {
		t.Fatal("another data graph: fresh tables, computed on that graph")
	}
	detached := tree.WithFilter(nil)
	if detached == tree || detached.Filter(data) == f {
		t.Fatal("a detached tree must not reach the tables")
	}
	if detached.WithFilter(f).Filter(data) != f || tree.WithFilter(f) != tree {
		t.Fatal("WithFilter attaches the given tables, and is the identity when they already are")
	}
}

// TestOneWalkPerLabelMatchesDirect: the tables of every class sharing a
// primary label are filled in one walk over that label's vertices. Each
// entry must be what the filters say of that (query vertex, data vertex)
// pair read directly — labels, then degree, then NLC — on queries whose
// vertices repeat primary labels with different degrees, extra labels and
// neighborhoods, on multi-labeled data, and every table's Pass count must
// be its candidate count.
func TestOneWalkPerLabelMatchesDirect(t *testing.T) {
	for seed := int64(0); seed < 30; seed++ {
		rng := rand.New(rand.NewSource(seed))
		data := gen.WithRandomMultiLabels(gen.ChungLu(200, 6, 2.3, seed), 4, 2, seed)
		n := 4 + rng.Intn(5)
		qb := graph.NewBuilder(n)
		for u := 0; u < n; u++ {
			qb.SetLabel(graph.VertexID(u), graph.Label(rng.Intn(2)))
			if rng.Intn(4) == 0 {
				qb.AddExtraLabel(graph.VertexID(u), graph.Label(2+rng.Intn(2)))
			}
			if u > 0 {
				qb.AddEdge(graph.VertexID(u), graph.VertexID(rng.Intn(u)))
			}
		}
		for i := 0; i < n/2; i++ {
			qb.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		query := qb.MustBuild()
		f := order.NewFilter(data, query)
		for u := 0; u < n; u++ {
			uu := graph.VertexID(u)
			labels, sig := query.Labels(uu), graph.NLCOf(query, uu)
			table, count := f.Verdicts(uu), 0
			for v := 0; v < data.NumVertices(); v++ {
				vv := graph.VertexID(v)
				want := order.Pass
				for _, l := range labels {
					if !data.HasLabel(vv, l) {
						want = order.DropLabel
					}
				}
				if want == order.Pass && data.Degree(vv) < query.Degree(uu) {
					want = order.DropDegree
				}
				if want == order.Pass && !graph.NLCOf(data, vv).Covers(sig) {
					want = order.DropNLC
				}
				if table[v] != want {
					t.Fatalf("seed %d: verdict(u%d, v%d) = %d, want %d", seed, u, v, table[v], want)
				}
				if want == order.Pass {
					count++
				}
			}
			if got := len(f.Candidates(uu)); got != count {
				t.Fatalf("seed %d: u%d has %d candidates, table passes %d", seed, u, got, count)
			}
		}
	}
}
