package ceci

import (
	"fmt"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
)

// ForEachGoldenPair visits the (data, query) pairs of the golden index
// table: Figure 1, gen.RandomPair seeds 1–50, one dense multi-label pair
// and the paper's five cyclic query shapes, one label per query vertex,
// on a sparse labeled graph. Exported to the external test package.
func ForEachGoldenPair(t *testing.T, visit func(name string, data, query *graph.Graph, seed int64)) {
	t.Helper()
	visit("fig1", gen.Fig1Data(), gen.Fig1Query(), 0)
	for seed := int64(1); seed <= 50; seed++ {
		data, query := gen.RandomPair(seed)
		visit(fmt.Sprintf("seed%d", seed), data, query, seed)
	}
	// The seeded pairs are tens of vertices; one pair whose frontiers pass
	// parallelFor's serial cutoff and whose lists run to hundreds of values.
	dense := gen.WithRandomMultiLabels(gen.ErdosRenyi(700, 9000, 11), 5, 3, 12)
	query, err := gen.DFSQuery(dense, 6, gen.NewRNG(13))
	if err != nil {
		t.Fatal(err)
	}
	visit("dense", dense, query, 13)
	// DFS-grown queries embed where they were grown, and refinement finds
	// nothing to delete in any pair above. The paper's cyclic query shapes
	// with one label per query vertex, on a sparse labeled graph, make it
	// work (7–42 refinement deletions each, more in a second round).
	sparse := gen.WithRandomLabels(gen.ErdosRenyi(400, 1600, 5), 4, 6)
	for i, name := range []string{"QG1", "QG2", "QG3", "QG4", "QG5"} {
		shape := gen.QueryGraphs()[name]
		b := graph.NewBuilder(shape.NumVertices())
		for u := 0; u < shape.NumVertices(); u++ {
			b.SetLabel(graph.VertexID(u), graph.Label(u%4))
		}
		shape.Edges(func(a, c graph.VertexID) bool {
			b.AddEdge(a, c)
			return true
		})
		visit("sparse-"+name, sparse, b.MustBuild(), int64(i))
	}
}
