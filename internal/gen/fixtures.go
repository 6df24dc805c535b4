package gen

import (
	"fmt"

	"ceci/internal/graph"
)

// Paper Figure 1 fixture: the running example used throughout Sections
// 1–4. Labels: A=0, B=1, C=2, D=3, E=4. Data vertices v1..v15 map to IDs
// 0..14 (so vK has ID K-1).
//
// The data graph is reconstructed from the narrative:
//   - pivots {v1, v2} are the candidates of root u1;
//   - TE(u1,u2) = <v1,{v3,v5,v7}>, <v2,{v7,v9}>;
//   - TE(u1,u3) = <v1,{v4,v6}>, <v2,{v8}> with v8 killed by the NLC filter
//     (no E-labeled neighbor), which cascades to remove the v2 cluster;
//   - NTE(u2,u3) = <v3,{v4}>, <v5,{v4,v6}>, <v7,{v6}> (v8 pruned);
//   - reverse-BFS refinement removes v7 from candidates of u2 because its
//     only u4-child v15 is not in NTE_Candidates of u4;
//   - exactly two embeddings survive: (v1,v3,v4,v11,v12) and
//     (v1,v5,v6,v13,v14).

// Fig1LabelA..Fig1LabelE name the labels of the fixture.
const (
	Fig1LabelA graph.Label = iota
	Fig1LabelB
	Fig1LabelC
	Fig1LabelD
	Fig1LabelE
)

// Fig1V converts the paper's 1-based vertex naming (vK) to a VertexID.
func Fig1V(k int) graph.VertexID { return graph.VertexID(k - 1) }

// Fig1Query returns the 5-vertex query graph of Figure 1:
// u1(A)-u2(B), u1-u3(C), u2-u3, u2-u4(D), u3-u4, u3-u5(E).
// Query vertices u1..u5 are IDs 0..4.
func Fig1Query() *graph.Graph {
	b := graph.NewBuilder(5)
	b.SetLabel(0, Fig1LabelA)
	b.SetLabel(1, Fig1LabelB)
	b.SetLabel(2, Fig1LabelC)
	b.SetLabel(3, Fig1LabelD)
	b.SetLabel(4, Fig1LabelE)
	for _, e := range [][2]graph.VertexID{
		{0, 1}, {0, 2}, // tree edges from u1
		{1, 2}, // non-tree edge (u2,u3)
		{1, 3}, // tree edge (u2,u4)
		{2, 3}, // non-tree edge (u3,u4)
		{2, 4}, // tree edge (u3,u5)
	} {
		b.AddEdge(e[0], e[1])
	}
	return b.MustBuild()
}

// Fig1Data returns the 15-vertex data graph of Figure 1.
func Fig1Data() *graph.Graph {
	b := graph.NewBuilder(15)
	setLabels := func(l graph.Label, vs ...int) {
		for _, v := range vs {
			b.SetLabel(Fig1V(v), l)
		}
	}
	setLabels(Fig1LabelA, 1, 2)
	setLabels(Fig1LabelB, 3, 5, 7, 9)
	setLabels(Fig1LabelC, 4, 6, 8, 10)
	setLabels(Fig1LabelD, 11, 13, 15)
	setLabels(Fig1LabelE, 12, 14)
	edges := [][2]int{
		// A-B edges (candidates of the query edge u1-u2)
		{1, 3}, {1, 5}, {1, 7}, {2, 7}, {2, 9},
		// A-C edges (u1-u3)
		{1, 4}, {1, 6}, {2, 8},
		// B-C edges (u2-u3 non-tree edge)
		{3, 4}, {5, 4}, {5, 6}, {7, 6}, {7, 8}, {9, 8},
		// B-D edges (u2-u4)
		{3, 11}, {5, 13}, {7, 15}, {9, 11},
		// C-D edges (u3-u4)
		{4, 11}, {6, 13}, {8, 11},
		// C-E edges (u3-u5)
		{4, 12}, {6, 14},
		// v15 needs a C neighbor to pass the NLC filter for u4 without
		// creating a third embedding: v10 is a C vertex unreachable from
		// the pivots.
		{15, 10},
	}
	for _, e := range edges {
		b.AddEdge(Fig1V(e[0]), Fig1V(e[1]))
	}
	return b.MustBuild()
}

// Fig1Embeddings returns the two embeddings of the fixture in matching
// order (u1,u2,u3,u4,u5), each expressed as data vertex IDs.
func Fig1Embeddings() [][]graph.VertexID {
	return [][]graph.VertexID{
		{Fig1V(1), Fig1V(3), Fig1V(4), Fig1V(11), Fig1V(12)},
		{Fig1V(1), Fig1V(5), Fig1V(6), Fig1V(13), Fig1V(14)},
	}
}

// ForEachGoldenPair visits the (data, query) pairs the golden tables are
// recorded over (internal/ceci's golden_index.tsv, the root package's
// EXPLAIN ANALYZE and Progress goldens): Figure 1, RandomPair seeds 1–50,
// one dense multi-label pair and the paper's five cyclic query shapes, one
// label per query vertex, on a sparse labeled graph.
func ForEachGoldenPair(visit func(name string, data, query *graph.Graph, seed int64)) {
	visit("fig1", Fig1Data(), Fig1Query(), 0)
	for seed := int64(1); seed <= 50; seed++ {
		data, query := RandomPair(seed)
		visit(fmt.Sprintf("seed%d", seed), data, query, seed)
	}
	// The seeded pairs are tens of vertices; one pair whose frontiers pass
	// parallelFor's serial cutoff and whose lists run to hundreds of values.
	dense := WithRandomMultiLabels(ErdosRenyi(700, 9000, 11), 5, 3, 12)
	query, err := DFSQuery(dense, 6, NewRNG(13))
	if err != nil {
		panic(err) // a fixed seed on a fixed graph: cannot fail at run time
	}
	visit("dense", dense, query, 13)
	// DFS-grown queries embed where they were grown, and refinement finds
	// nothing to delete in any pair above. The paper's cyclic query shapes
	// with one label per query vertex, on a sparse labeled graph, make it
	// work (7–42 refinement deletions each, more in a second round).
	sparse := WithRandomLabels(ErdosRenyi(400, 1600, 5), 4, 6)
	for i, name := range []string{"QG1", "QG2", "QG3", "QG4", "QG5"} {
		shape := QueryGraphs()[name]
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

// WidePair returns a data graph and a 5-vertex query whose CECI index has
// one query vertex with n candidates beside four with two or three: the
// fixture for the two arena widths (internal/ceci's CandMap), narrow up to
// n = 2^16 and wide past it. Query, one label each: the triangle A(0),
// C(1), D(2), and the square A–D–B(4)–E(3)–A. Data: hubs a0, a1 (A);
// c0..c2 (C), d0..d2 (D) and e0..e2 (E), each adjacent to both hubs, with
// ck–dk; and n vertices bi (B), bi adjacent to d(i mod 3) and e(i mod 3).
// Under each hub every bi completes one embedding, so the query has 2n of
// them, and the naive reference matcher, which assigns the query's
// vertices in ID order, scans the data graph only 18 times for B. Under
// BFS, D is keyed by A and C, B by D and E, and a count-only run counts B
// from a histogram.
func WidePair(n int) (data, query *graph.Graph) {
	const a0, c0, d0, e0, b0 = 0, 2, 5, 8, 11 // a0 a1 | c0..c2 | d0..d2 | e0..e2 | b0..
	b := graph.NewBuilder(b0 + n)
	for i := 0; i < n; i++ {
		b.SetLabel(graph.VertexID(b0+i), 4)
	}
	for k := 0; k < 3; k++ {
		b.SetLabel(graph.VertexID(c0+k), 1)
		b.SetLabel(graph.VertexID(d0+k), 2)
		b.SetLabel(graph.VertexID(e0+k), 3)
		for h := 0; h < 2; h++ {
			b.AddEdge(graph.VertexID(a0+h), graph.VertexID(c0+k))
			b.AddEdge(graph.VertexID(a0+h), graph.VertexID(d0+k))
			b.AddEdge(graph.VertexID(a0+h), graph.VertexID(e0+k))
		}
		b.AddEdge(graph.VertexID(c0+k), graph.VertexID(d0+k))
	}
	for i := 0; i < n; i++ {
		b.AddEdge(graph.VertexID(b0+i), graph.VertexID(d0+i%3))
		b.AddEdge(graph.VertexID(b0+i), graph.VertexID(e0+i%3))
	}
	q := graph.NewBuilder(5)
	for u := 0; u < 5; u++ {
		q.SetLabel(graph.VertexID(u), graph.Label(u))
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}, {0, 3}, {2, 4}, {3, 4}} {
		q.AddEdge(e[0], e[1])
	}
	return b.MustBuild(), q.MustBuild()
}

// StarPair returns a star query — a centre labelled 0 with one leaf
// labelled i+1 per entry fan[i] — and a data graph in which the centre
// has two candidates: vertex 0, with fan[i] neighbours labelled i+1, and
// vertex 1, adjacent to the first of each label. Every leaf's cardinality
// is 1, so the centre's is the product of fan at vertex 0 (saturating at
// internal/ceci's CardSaturation) and 1 at vertex 1: the fixture for the
// widths of a cardinality column, whose largest value the fans (each at
// least 1) choose.
func StarPair(fan ...int) (data, query *graph.Graph) {
	n := 2
	for _, f := range fan {
		n += f
	}
	b := graph.NewBuilder(n)
	v := graph.VertexID(2)
	for i, f := range fan {
		b.AddEdge(1, v)
		for range f {
			b.SetLabel(v, graph.Label(i+1))
			b.AddEdge(0, v)
			v++
		}
	}
	q := graph.NewBuilder(1 + len(fan))
	for i := range fan {
		leaf := graph.VertexID(i + 1)
		q.SetLabel(leaf, graph.Label(i+1))
		q.AddEdge(0, leaf)
	}
	return b.MustBuild(), q.MustBuild()
}
