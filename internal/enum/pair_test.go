package enum

import (
	"fmt"
	"slices"
	"sync/atomic"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/workload"
)

// star returns a star query: vertex 0 joined to one leaf per entry of
// leafLabels, labelled with it (the center is labelled 0).
func star(leafLabels ...graph.Label) *graph.Graph {
	b := graph.NewBuilder(1 + len(leafLabels))
	for i, l := range leafLabels {
		leaf := graph.VertexID(1 + i)
		b.SetLabel(leaf, l)
		b.AddEdge(0, leaf)
	}
	return b.MustBuild()
}

// path returns the unlabeled path 0-1-...-(n-1).
func path(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.VertexID(i-1), graph.VertexID(i))
	}
	return b.MustBuild()
}

// TestPairCountEqualsEnumerated: a count-only run must return exactly
// what a consumer is handed — on houses, stars, paths, the golden pairs
// but the dense one and seeded random pairs, under Workers {1, 4} ×
// ST/CGD/FGD × limits {0, 1, 7, total-1, total, total+1}, with symmetry
// breaking and without, and under edge verification. Trailing vertices
// with no query edge between them — a star's leaves, a path's ends, a
// house's pair — are the shapes whose count could be taken from the
// candidate lists without a descent, so they are the ones a count path
// that did so would get wrong.
func TestPairCountEqualsEnumerated(t *testing.T) {
	type fixture struct {
		name        string
		data, query *graph.Graph
	}
	labeled := gen.WithRandomLabels(gen.ErdosRenyi(40, 160, 5), 4, 5)
	fixtures := []fixture{
		{"house-er-1", gen.ErdosRenyi(30, 120, 1), gen.QG4()},
		{"house-er-2", gen.ErdosRenyi(30, 120, 2), gen.QG4()},
		{"house-kronecker", gen.Kronecker(6, 6, 1), gen.QG4()},
		{"star-equivalent-leaves", gen.ErdosRenyi(25, 70, 4), star(0, 0, 0)},
		{"star-labeled-leaves", labeled, star(1, 2, 3)},
		{"star-two-equivalent", labeled, star(1, 2, 2)},
		{"path-4", gen.ErdosRenyi(25, 60, 6), path(4)},
		{"path-5", gen.ErdosRenyi(25, 60, 7), path(5)},
	}
	gen.ForEachGoldenPair(func(name string, data, query *graph.Graph, _ int64) {
		if name != "dense" { // 13 million embeddings to hand a consumer, 60 times over
			fixtures = append(fixtures, fixture{name, data, query})
		}
	})
	for seed := int64(1); seed <= 30; seed++ {
		data, query := gen.RandomPair(seed)
		fixtures = append(fixtures, fixture{fmt.Sprintf("random-pair-%d", seed), data, query})
	}

	for _, fx := range fixtures {
		tree, err := order.Preprocess(fx.data, fx.query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Preprocess: %v", fx.name, err)
		}
		ix := ceci.Build(fx.data, tree, ceci.Options{})
		for _, keep := range []bool{false, true} {
			total := deliveries(NewMatcher(ix, Options{Workers: 1, DisableSymmetryBreaking: keep}))
			limits := []int64{0}
			for _, l := range []int64{1, 7, total - 1, total, total + 1} {
				if l > 0 && !slices.Contains(limits, l) {
					limits = append(limits, l)
				}
			}
			for _, workers := range []int{1, 4} {
				for _, strat := range []workload.Strategy{workload.ST, workload.CGD, workload.FGD} {
					for _, limit := range limits {
						opts := Options{Workers: workers, Strategy: strat, Limit: limit, DisableSymmetryBreaking: keep}
						want := total
						if limit > 0 && limit < total {
							want = limit
						}
						n := NewMatcher(ix, opts).Count()
						got := deliveries(NewMatcher(ix, opts))
						if n != want || got != want {
							t.Fatalf("%s keep=%v workers %d %v limit %d: Count %d, ForEach delivered %d, want %d",
								fx.name, keep, workers, strat, limit, n, got, want)
						}
					}
				}
			}
			ev := NewMatcher(ix, Options{Workers: 4, EdgeVerification: true, DisableSymmetryBreaking: keep})
			if n := ev.Count(); n != total {
				t.Fatalf("%s keep=%v: edge-verification Count %d, ForEach delivered %d", fx.name, keep, n, total)
			}
		}
	}
}

// deliveries runs m with a consumer and returns how many embeddings it was
// handed.
func deliveries(m *Matcher) int64 {
	var n atomic.Int64
	m.ForEach(func([]graph.VertexID) bool {
		n.Add(1)
		return true
	})
	return n.Load()
}
