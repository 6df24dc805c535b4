package enum

import (
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/workload"
)

// elimPair returns a seeded Erdős–Rényi graph of 24–55 vertices labelled
// from an alphabet of 1–3 labels — on an even seed a quarter of its
// vertices carry a second label, so one data vertex can be a candidate of
// two query vertices of different labels; on an odd seed every vertex has
// one label, so the sharing rule (Matcher.canShare) can tell such query
// vertices apart — and four queries labelled from the same
// alphabet: a square and a house, and two whose last square hangs below
// the root — a square with a tail and a domino (two squares sharing an
// edge) — so that z is keyed by a vertex that moves inside a cluster and
// the histogram must be refilled there.
func elimPair(seed int64) (data *graph.Graph, queries []*graph.Graph) {
	rng := gen.NewRNG(seed)
	n := 24 + rng.Intn(32)
	labels := 1 + rng.Intn(3)
	er := gen.ErdosRenyi(n, 2*n+rng.Intn(2*n), seed)
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
		if seed%2 == 0 && rng.Intn(4) == 0 {
			b.AddExtraLabel(graph.VertexID(v), graph.Label(rng.Intn(labels)))
		}
	}
	er.Edges(func(u, v graph.VertexID) bool {
		b.AddEdge(u, v)
		return true
	})
	tailed := graph.NewBuilder(5)
	domino := graph.NewBuilder(6)
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 1}} {
		tailed.AddEdge(e[0], e[1])
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {1, 2}, {3, 4}, {4, 5}, {0, 3}, {1, 4}, {2, 5}} {
		domino.AddEdge(e[0], e[1])
	}
	for _, shape := range []*graph.Graph{gen.QG2(), gen.QG4(), tailed.MustBuild(), domino.MustBuild()} {
		q := graph.NewBuilder(shape.NumVertices())
		for u := 0; u < shape.NumVertices(); u++ {
			q.SetLabel(graph.VertexID(u), graph.Label(rng.Intn(labels)))
		}
		shape.Edges(func(u, v graph.VertexID) bool {
			q.AddEdge(u, v)
			return true
		})
		queries = append(queries, q.MustBuild())
	}
	return b.MustBuild(), queries
}

// TestEliminationCountEqualsEnumerated: a count-only run that counts its
// last vertex from a histogram (searcher.eliminate) must return exactly
// what a consumer is handed, and both what a matcher whose every pair of
// query vertices can share a data vertex collects — on squares (shape 1),
// houses (shape 2) and the two shapes elimPair adds, over seeded random
// single- and multi-labelled graphs, with symmetry breaking and without,
// under Workers 1–3 × ST/FGD × limits {0, half the total}. Both shapes
// must be taken, and each of eliminate's three correction terms must be
// non-zero on some prefix and skipped by the sharing rule on another, so
// that dropping any one of them, refilling the histogram only at unit
// boundaries, or a rule that lets no two vertices share fails here.
func TestEliminationCountEqualsEnumerated(t *testing.T) {
	seeds := int64(150)
	if testing.Short() {
		seeds = 40
	}
	var shapes [2]int
	var corrected, ruledOut [3]int64
	for seed := int64(1); seed <= seeds; seed++ {
		data, queries := elimPair(seed)
		for _, query := range queries {
			tree, err := order.Preprocess(data, query, order.DefaultOptions())
			if err != nil {
				t.Fatalf("seed %d: Preprocess: %v", seed, err)
			}
			ix := ceci.Build(data, tree, ceci.Options{})
			n := tree.NumVertices()
			for _, keep := range []bool{false, true} {
				m := NewMatcher(ix, Options{Workers: 1, DisableSymmetryBreaking: keep})
				switch m.elim {
				case n - 2:
					shapes[0]++
				case n - 3:
					shapes[1]++
				}
				total := int64(len(sharingEverywhere(ix, Options{Workers: 1, DisableSymmetryBreaking: keep}).Collect()))
				limits := []int64{0}
				if total > 1 {
					limits = append(limits, total/2)
				}
				for workers := 1; workers <= 3; workers++ {
					for _, strat := range []workload.Strategy{workload.ST, workload.FGD} {
						for _, limit := range limits {
							opts := Options{Workers: workers, Strategy: strat, Limit: limit, DisableSymmetryBreaking: keep}
							want := total
							if limit > 0 {
								want = limit
							}
							counted := NewMatcher(ix, opts).Count()
							listed := int64(len(NewMatcher(ix, opts).Collect()))
							if counted != want || listed != want {
								t.Fatalf("seed %d %d-vertex query keep=%v workers %d %v limit %d: Count %d, Collect %d, want %d (eliminated depth %d)",
									seed, n, keep, workers, strat, limit, counted, listed, want, m.elim)
							}
						}
					}
				}
				if m.elim > 0 {
					s := newSearcher(m, &control{})
					for _, u := range m.units(s) {
						s.runUnit(u)
					}
					for i := range s.corrected {
						corrected[i] += s.corrected[i]
						ruledOut[i] += s.ruledOut[i]
					}
				}
			}
		}
	}
	t.Logf("shape 1 (z at n-2) taken %d times, shape 2 (z at n-3) %d; corrections Z∩U %d, Z∩A %d, O∩A %d; ruled out %d, %d, %d",
		shapes[0], shapes[1], corrected[0], corrected[1], corrected[2], ruledOut[0], ruledOut[1], ruledOut[2])
	if shapes[0] == 0 || shapes[1] == 0 {
		t.Fatal("a shape was never taken: fixtures too small")
	}
	for i, c := range corrected {
		if c == 0 {
			t.Fatalf("correction term %d was zero on every prefix: fixtures too small", i)
		}
		if ruledOut[i] == 0 {
			t.Fatalf("the sharing rule skipped correction term %d on no prefix", i)
		}
	}
}
