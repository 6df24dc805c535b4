package ceci_test

import (
	"slices"
	"testing"
	"unsafe"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// TestRestrictPartitionsIndex: the views of an index restricted to the
// blocks of a partition of its pivots enumerate it — their counts sum to
// the index's, under FGD, whose units are cut by the views' cluster
// cardinalities (a pivot's own, not its position's in the full list) — and
// a view shares every column of the index, the root's candidates included
// (they key its children's maps), holds the block as its pivots, and the
// index keeps its own.
func TestRestrictPartitionsIndex(t *testing.T) {
	gen.ForEachGoldenPair(func(name string, data, query *graph.Graph, _ int64) {
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		opts := enum.Options{Workers: 3}
		want := enum.NewMatcher(ix, opts).Count()
		pivots := ix.Pivots()
		npivots := len(pivots)
		var got int64
		for lo, size := 0, 1; lo < len(pivots); lo, size = lo+size, size+1 {
			block := pivots[lo:min(lo+size, len(pivots))]
			view := ix.Restrict(block)
			if !slices.Equal(view.Pivots(), block) {
				t.Fatalf("%s: view pivots %v, block %v", name, view.Pivots(), block)
			}
			for i, p := range block {
				if view.ClusterCardinality(i) != ix.ClusterCardinality(lo+i) {
					t.Fatalf("%s: pivot %d: view cardinality %d, index %d", name, p, view.ClusterCardinality(i), ix.ClusterCardinality(lo+i))
				}
			}
			for u := range ix.Nodes {
				if len(ix.Nodes[u].Cands) == 0 {
					continue
				}
				if unsafe.SliceData(view.Nodes[u].Cands) != unsafe.SliceData(ix.Nodes[u].Cands) {
					t.Fatalf("%s: u%d: the view copied the candidate column", name, u)
				}
				te, vte := &ix.Nodes[u].TE, &view.Nodes[u].TE
				if te.CandidateEdges() > 0 && (ix.Nodes[u].Narrow() && unsafe.SliceData(vte.U16().At(0)) != unsafe.SliceData(te.U16().At(0)) ||
					!ix.Nodes[u].Narrow() && unsafe.SliceData(vte.U32().At(0)) != unsafe.SliceData(te.U32().At(0))) {
					t.Fatalf("%s: u%d: the view copied the TE column", name, u)
				}
			}
			if !slices.Equal(view.Pivots(), block) {
				t.Fatalf("%s: a view of %v holds the pivots %v", name, block, view.Pivots())
			}
			got += enum.NewMatcher(view, opts).Count()
		}
		if got != want {
			t.Fatalf("%s: the views of a partition of %d pivots count %d, the index %d", name, len(pivots), got, want)
		}
		if len(ix.Pivots()) != npivots {
			t.Fatalf("%s: restricting changed the index's pivots", name)
		}
	})
}
