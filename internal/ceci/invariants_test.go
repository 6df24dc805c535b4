package ceci_test

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/setops"
)

// TestIndexStructuralInvariants property-checks the built index on random
// graphs:
//
//  1. every TE/NTE value list is strictly sorted;
//  2. TE keys of u are a subset of the parent's candidate set, NTE keys a
//     subset of the NTE parent's candidate set;
//  3. every TE value belongs to u's candidate union; NTE values likewise;
//  4. every stored (key, value) pair is a real data edge (soundness half
//     of Section 3.5's correctness argument);
//  5. surviving candidates have positive cardinality;
//
// and, under them all, that every map is positions over its key and value
// spaces (CheckColumns), so that reading it by ids is defined.
func TestIndexStructuralInvariants(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		data := randomGraph(rng, 12+rng.Intn(12), 25+rng.Intn(40), 1+rng.Intn(3))
		query, err := gen.DFSQuery(data, 2+rng.Intn(4), rng)
		if err != nil {
			return true
		}
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			return false
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		return checkInvariants(t, ix, tree, data)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// checkInvariants checks all five, and CheckColumns first.
func checkInvariants(t *testing.T, ix *ceci.Index, tree *order.QueryTree, data *graph.Graph) bool {
	t.Helper()
	if err := ix.CheckColumns(); err != nil {
		t.Log(err)
		return false
	}
	ok := true
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		if !setops.IsSorted(node.Cands) {
			t.Logf("u%d: candidate union unsorted", u)
			ok = false
		}
		checkMap := func(slot int, parentCands []graph.VertexID, kind string) {
			var keys []graph.VertexID
			ix.ForEachID(graph.VertexID(u), slot, func(key graph.VertexID, vals []graph.VertexID) {
				keys = append(keys, key)
				if !has(parentCands, key) {
					t.Logf("u%d %s: key %d not a parent candidate", u, kind, key)
					ok = false
				}
				if !setops.IsSorted(vals) {
					t.Logf("u%d %s[%d]: values unsorted", u, kind, key)
					ok = false
				}
				for _, v := range vals {
					if !has(node.Cands, v) {
						t.Logf("u%d %s[%d]: value %d outside candidate union", u, kind, key, v)
						ok = false
					}
					if !data.HasEdge(key, v) {
						t.Logf("u%d %s: stored pair (%d,%d) is not a data edge", u, kind, key, v)
						ok = false
					}
				}
			})
			if !setops.IsSorted(keys) {
				t.Logf("u%d %s: keys unsorted", u, kind)
				ok = false
			}
		}
		if p := tree.Parent[u]; p != order.NoParent {
			checkMap(ceci.TESlot, ix.Nodes[p].Cands, "TE")
		} else if node.TE.Len() > 0 {
			t.Logf("u%d: the root has TE keys", u)
			ok = false
		}
		for j, un := range tree.NTEParents[u] {
			checkMap(j, ix.Nodes[un].Cands, "NTE")
		}
		for p, v := range node.Cands {
			if c := node.CardAt(uint32(p)); c <= 0 {
				t.Logf("u%d: surviving candidate %d has cardinality %d", u, v, c)
				ok = false
			}
		}
	}
	return ok
}

// TestPivotSubsetBuild: restricting the build to a pivot subset must
// produce exactly the embeddings rooted at those pivots.
func TestPivotSubsetBuild(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	data := randomGraph(rng, 20, 60, 2)
	query, err := gen.DFSQuery(data, 3, rng)
	if err != nil {
		t.Skip("no query region")
	}
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	full := ceci.Build(data, tree, ceci.Options{})
	pivots := full.Pivots()
	if len(pivots) < 2 {
		t.Skip("not enough pivots")
	}
	half := append([]graph.VertexID(nil), pivots[:len(pivots)/2]...)
	sub := ceci.Build(data, tree, ceci.Options{Pivots: half})
	got := sub.Pivots()
	// Surviving pivots of the restricted build must be a subset of the
	// requested ones.
	for _, p := range got {
		if !has(half, p) {
			t.Fatalf("pivot %d not requested", p)
		}
	}
}

// has reports whether the sorted list a holds x.
func has(a []uint32, x uint32) bool {
	_, ok := slices.BinarySearch(a, x)
	return ok
}
