package workload

import (
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
)

// collectAssignment flattens parts into a pivot -> part map, failing if
// any pivot appears in more than one part.
func collectAssignment(t *testing.T, pivots []graph.VertexID, parts [][]graph.VertexID) map[graph.VertexID]int {
	t.Helper()
	where := make(map[graph.VertexID]int)
	for i, part := range parts {
		for _, v := range part {
			if prev, dup := where[v]; dup {
				t.Fatalf("pivot %d assigned to both part %d and part %d", v, prev, i)
			}
			where[v] = i
		}
	}
	if len(where) != len(pivots) {
		t.Fatalf("parts cover %d pivots, want %d", len(where), len(pivots))
	}
	for _, v := range pivots {
		if _, ok := where[v]; !ok {
			t.Fatalf("pivot %d missing from every part", v)
		}
	}
	return where
}

// TestDistributePivotsPartition: every pivot lands in exactly one part,
// for both weight modes and with the Jaccard co-location pass on.
func TestDistributePivotsPartition(t *testing.T) {
	data := gen.WithRandomLabels(gen.ErdosRenyi(200, 800, 7), 3, 9)
	pivots := make([]graph.VertexID, 0, data.NumVertices())
	for v := 0; v < data.NumVertices(); v += 2 {
		pivots = append(pivots, graph.VertexID(v))
	}
	for _, opt := range []DistributeOptions{
		{Parts: 4},
		{Parts: 4, NeighborDegrees: true},
		{Parts: 4, NeighborDegrees: true, Jaccard: true},
	} {
		parts := DistributePivots(data, pivots, opt)
		if len(parts) != opt.Parts {
			t.Fatalf("opt %+v: got %d parts, want %d", opt, len(parts), opt.Parts)
		}
		collectAssignment(t, pivots, parts)
		for i, part := range parts {
			for j := 1; j < len(part); j++ {
				if part[j-1] >= part[j] {
					t.Fatalf("opt %+v: part %d not ascending at %d", opt, i, j)
				}
			}
		}
	}
}

// TestDistributePivotsDeterministic: the same inputs must give the same
// partition — shard layouts are part of the fleet's identity.
func TestDistributePivotsDeterministic(t *testing.T) {
	data := gen.WithRandomLabels(gen.ErdosRenyi(150, 600, 3), 3, 5)
	pivots := make([]graph.VertexID, data.NumVertices())
	for v := range pivots {
		pivots[v] = graph.VertexID(v)
	}
	opt := DistributeOptions{Parts: 5, NeighborDegrees: true, Jaccard: true}
	a := DistributePivots(data, pivots, opt)
	b := DistributePivots(data, pivots, opt)
	for i := range a {
		if len(a[i]) != len(b[i]) {
			t.Fatalf("part %d size differs across runs: %d vs %d", i, len(a[i]), len(b[i]))
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				t.Fatalf("part %d diverges at %d: %d vs %d", i, j, a[i][j], b[i][j])
			}
		}
	}
}

// TestDistributePivotsBalance: greedy largest-first bin packing should
// keep the weight spread under control — no part more than twice the
// mean estimated load on a well-mixed random graph.
func TestDistributePivotsBalance(t *testing.T) {
	data := gen.WithRandomLabels(gen.ErdosRenyi(300, 1500, 13), 3, 17)
	pivots := make([]graph.VertexID, data.NumVertices())
	for v := range pivots {
		pivots[v] = graph.VertexID(v)
	}
	parts := DistributePivots(data, pivots, DistributeOptions{Parts: 4})
	var total float64
	loads := make([]float64, len(parts))
	for i, part := range parts {
		for _, v := range part {
			w := PivotWeight(data, v, false)
			loads[i] += w
			total += w
		}
	}
	mean := total / float64(len(parts))
	for i, load := range loads {
		if load > 2*mean {
			t.Errorf("part %d load %.1f exceeds 2x mean %.1f", i, load, mean)
		}
		if len(parts[i]) == 0 {
			t.Errorf("part %d is empty", i)
		}
	}
}

// TestPivotWeightScaling: the §5 estimate scales a vertex's weight by
// (n - v)/n, so low-id vertices (enumerated by more pivots under the
// symmetry-breaking order) weigh more than high-id vertices of equal
// degree.
func TestPivotWeightScaling(t *testing.T) {
	// A 4-cycle: every vertex has degree 2; only the scaling differs.
	b := graph.NewBuilder(4)
	for v := 0; v < 4; v++ {
		b.SetLabel(graph.VertexID(v), 0)
	}
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 3)
	b.AddEdge(3, 0)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	w0 := PivotWeight(g, 0, false)
	w3 := PivotWeight(g, 3, false)
	if w0 <= w3 {
		t.Fatalf("weight(v0)=%v should exceed weight(v3)=%v under (n-v)/n scaling", w0, w3)
	}
}
