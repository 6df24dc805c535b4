package enum_test

import (
	"math/rand"
	"sort"
	"sync/atomic"
	"testing"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/reference"
	"ceci/internal/stats"
	"ceci/internal/workload"
)

func buildMatcher(t *testing.T, data, query *graph.Graph, oopts order.Options, eopts enum.Options) *enum.Matcher {
	t.Helper()
	tree, err := order.Preprocess(data, query, oopts)
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ix := ceci.Build(data, tree, ceci.Options{Stats: eopts.Stats})
	return enum.NewMatcher(ix, eopts)
}

func TestFig1Embeddings(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	m := buildMatcher(t, data, query,
		order.Options{ForcedRoot: 0}, enum.Options{Workers: 1})
	got := m.Collect()
	want := gen.Fig1Embeddings()
	if len(got) != len(want) {
		t.Fatalf("found %d embeddings, want %d: %v", len(got), len(want), got)
	}
	sortEmbeddings(got)
	for i := range want {
		for j := range want[i] {
			if got[i][j] != want[i][j] {
				t.Fatalf("embedding %d = %v, want %v", i, got[i], want[i])
			}
		}
	}
}

// TestCrossValidation compares CECI enumeration against the brute-force
// oracle over many random labeled graphs and queries, with and without
// symmetry breaking, across strategies and worker counts.
func TestCrossValidation(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	strategies := []workload.Strategy{workload.ST, workload.CGD, workload.FGD}
	for trial := 0; trial < 80; trial++ {
		data := randomGraph(rng, 10+rng.Intn(8), 20+rng.Intn(25), 1+rng.Intn(3))
		query, err := gen.DFSQuery(data, 2+rng.Intn(4), rng)
		if err != nil {
			continue
		}
		wantRaw := reference.Count(data, query, reference.Options{})
		cons := auto.Compute(query)
		wantSym := reference.Count(data, query, reference.Options{Constraints: cons})

		for _, strat := range strategies {
			for _, workers := range []int{1, 4} {
				m := buildMatcher(t, data, query, order.DefaultOptions(), enum.Options{
					Workers: workers, Strategy: strat, DisableSymmetryBreaking: true,
				})
				if got := m.Count(); got != wantRaw {
					t.Fatalf("trial %d %v/w%d raw: got %d want %d (q=%v)",
						trial, strat, workers, got, wantRaw, query)
				}
				m = buildMatcher(t, data, query, order.DefaultOptions(), enum.Options{
					Workers: workers, Strategy: strat,
				})
				if got := m.Count(); got != wantSym {
					t.Fatalf("trial %d %v/w%d sym: got %d want %d",
						trial, strat, workers, got, wantSym)
				}
			}
		}
	}
}

// TestEdgeVerificationAblation: the ablation mode must produce identical
// results to intersection-based enumeration.
func TestEdgeVerificationAblation(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for trial := 0; trial < 40; trial++ {
		data := randomGraph(rng, 12, 36, 2)
		query, err := gen.DFSQuery(data, 4, rng)
		if err != nil {
			continue
		}
		st := &stats.Counters{}
		mi := buildMatcher(t, data, query, order.DefaultOptions(), enum.Options{Workers: 2})
		mv := buildMatcher(t, data, query, order.DefaultOptions(), enum.Options{
			Workers: 2, EdgeVerification: true, Stats: st,
		})
		ci, cv := mi.Count(), mv.Count()
		if ci != cv {
			t.Fatalf("trial %d: intersection %d != edge-verification %d", trial, ci, cv)
		}
		if query.NumEdges() > query.NumVertices()-1 && cv > 0 && st.EdgeVerifications.Load() == 0 {
			t.Fatalf("trial %d: edge-verification mode did no probes", trial)
		}
	}
}

func TestMatchingOrderHeuristicsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	heuristics := []order.Heuristic{order.BFSOrder, order.LeastFrequent, order.PathRanked, order.EdgeRanked}
	for trial := 0; trial < 30; trial++ {
		data := randomGraph(rng, 12, 30, 2)
		query, err := gen.DFSQuery(data, 4, rng)
		if err != nil {
			continue
		}
		var want int64 = -1
		for _, h := range heuristics {
			m := buildMatcher(t, data, query, order.Options{ForcedRoot: -1, Heuristic: h}, enum.Options{Workers: 2})
			got := m.Count()
			if want < 0 {
				want = got
			} else if got != want {
				t.Fatalf("trial %d: heuristic %v count %d != %d", trial, h, got, want)
			}
		}
	}
}

func TestFirstKLimit(t *testing.T) {
	data := gen.Kronecker(8, 8, 1)
	query := gen.QG1()
	for _, workers := range []int{1, 4} {
		m := buildMatcher(t, data, query, order.DefaultOptions(), enum.Options{
			Workers: workers, Limit: 100,
		})
		total := buildMatcher(t, data, query, order.DefaultOptions(), enum.Options{Workers: 1}).Count()
		got := m.Count()
		want := int64(100)
		if total < want {
			want = total
		}
		if got != want {
			t.Fatalf("workers=%d: limited count = %d, want %d (total %d)", workers, got, want, total)
		}
	}
}

func TestEarlyStopFromCallback(t *testing.T) {
	data := gen.Kronecker(8, 8, 1)
	m := buildMatcher(t, data, gen.QG1(), order.DefaultOptions(), enum.Options{Workers: 4})
	// ForEach may invoke the callback from several workers at once.
	var calls atomic.Int64
	m.ForEach(func([]graph.VertexID) bool {
		return calls.Add(1) < 5
	})
	if calls.Load() < 5 {
		t.Fatalf("callback stopped after %d calls", calls.Load())
	}
}

// TestCliqueCounts pins known clique counts: symmetry-broken triangle and
// k-clique counts on a complete graph K_n are n choose k.
func TestCliqueCounts(t *testing.T) {
	complete := func(n int) *graph.Graph {
		b := graph.NewBuilder(n)
		for i := 0; i < n; i++ {
			for j := i + 1; j < n; j++ {
				b.AddEdge(graph.VertexID(i), graph.VertexID(j))
			}
		}
		return b.MustBuild()
	}
	k8 := complete(8)
	cases := []struct {
		q    *graph.Graph
		want int64
	}{
		{gen.QG1(), 56}, // C(8,3)
		{gen.QG3(), 70}, // C(8,4)
		{gen.QG5(), 56}, // C(8,5)
	}
	for i, c := range cases {
		m := buildMatcher(t, k8, c.q, order.DefaultOptions(), enum.Options{Workers: 2})
		if got := m.Count(); got != c.want {
			t.Fatalf("case %d: count = %d, want %d", i, got, c.want)
		}
	}
}

// TestQG4HouseCount cross-checks the house query against the oracle on a
// Kronecker graph.
func TestQG4HouseCount(t *testing.T) {
	data := gen.ErdosRenyi(18, 60, 3)
	query := gen.QG4()
	cons := auto.Compute(query)
	want := reference.Count(data, query, reference.Options{Constraints: cons})
	m := buildMatcher(t, data, query, order.DefaultOptions(), enum.Options{Workers: 4, Strategy: workload.FGD})
	if got := m.Count(); got != want {
		t.Fatalf("house count = %d, want %d", got, want)
	}
}

func TestRecursiveCallCounter(t *testing.T) {
	st := &stats.Counters{}
	data := gen.Kronecker(8, 6, 2)
	m := buildMatcher(t, data, gen.QG1(), order.DefaultOptions(), enum.Options{Workers: 2, Stats: st})
	n := m.Count()
	if n > 0 && st.RecursiveCalls.Load() == 0 {
		t.Fatal("recursive calls not counted")
	}
	if st.Embeddings.Load() != n {
		t.Fatalf("embedding counter %d != count %d", st.Embeddings.Load(), n)
	}
}

func sortEmbeddings(embs [][]graph.VertexID) {
	sort.Slice(embs, func(i, j int) bool {
		for k := range embs[i] {
			if embs[i][k] != embs[j][k] {
				return embs[i][k] < embs[j][k]
			}
		}
		return false
	})
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

// TestSingleWorkerDeterminism: with one worker the enumeration order is
// fully determined by the pool order and sorted candidate lists.
func TestSingleWorkerDeterminism(t *testing.T) {
	data := gen.Kronecker(8, 6, 11)
	m1 := buildMatcher(t, data, gen.QG2(), order.DefaultOptions(), enum.Options{Workers: 1, Strategy: workload.CGD})
	m2 := buildMatcher(t, data, gen.QG2(), order.DefaultOptions(), enum.Options{Workers: 1, Strategy: workload.CGD})
	a, b := m1.Collect(), m2.Collect()
	if len(a) != len(b) {
		t.Fatalf("lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("embedding %d differs: %v vs %v", i, a[i], b[i])
			}
		}
	}
}
