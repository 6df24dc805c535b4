package ceci_test

import (
	"bytes"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/reference"
)

// TestWideAndNarrowNodes builds gen.WidePair's index with its one large
// vertex at 2^16 candidates, the most a two-byte arena holds, and at one
// more. Either way the index has a vertex with non-tree edges at each
// width beside a tree-only one, and the count, the consumer's count and
// every cluster's count (a Restrict view per pivot) equal the reference
// matcher's; WriteTo → ReadIndex gives the same bytes, the same
// PhysicalBytes and the same count.
func TestWideAndNarrowNodes(t *testing.T) {
	for _, n := range []int{1 << 16, 1<<16 + 1} {
		data, query := gen.WidePair(n)
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		if err := ix.CheckColumns(); err != nil {
			t.Fatalf("n=%d: %v", n, err)
		}
		// Which arena each vertex has, read off the columns: the one with
		// n candidates is narrow up to 2^16, every other one narrow.
		var withNTE [2]bool
		for u := range ix.Nodes {
			cands, want := len(ix.Nodes[u].Cands), 2
			if cands > 1<<16 {
				want = 4
			}
			if got := ix.ArenaWidth(graph.VertexID(u)); u != int(tree.Root) && got != want {
				t.Fatalf("n=%d: u%d with %d candidates has %d-byte values, want %d", n, u, cands, got, want)
			}
			if len(tree.NTEParents[u]) > 0 {
				withNTE[want/4] = true
			}
		}
		if wide := n > 1<<16; !withNTE[0] || wide && !withNTE[1] {
			t.Fatalf("n=%d: the widths of the vertices with non-tree edges are %v (narrow, wide), want both", n, withNTE)
		}

		want := reference.Count(data, query, reference.Options{})
		if want != 2*int64(n) {
			t.Fatalf("n=%d: the reference counts %d", n, want)
		}
		count := func(ix *ceci.Index) (counted, seen int64) {
			m := enum.NewMatcher(ix, enum.Options{Workers: 1})
			m.ForEach(func([]graph.VertexID) bool {
				seen++
				return true
			})
			return enum.NewMatcher(ix, enum.Options{Workers: 1}).Count(), seen
		}
		if counted, seen := count(ix); counted != want || seen != want {
			t.Fatalf("n=%d: counted %d, enumerated %d, the reference %d", n, counted, seen, want)
		}

		var file bytes.Buffer
		if _, err := ix.WriteTo(&file); err != nil {
			t.Fatal(err)
		}
		back, err := ceci.ReadIndex(bytes.NewReader(file.Bytes()), data, tree)
		if err != nil {
			t.Fatalf("n=%d: ReadIndex: %v", n, err)
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file.Bytes(), again.Bytes()) || back.PhysicalBytes() != ix.PhysicalBytes() {
			t.Fatalf("n=%d: read back, %d bytes and PhysicalBytes %d; written, %d and %d", n, again.Len(), back.PhysicalBytes(), file.Len(), ix.PhysicalBytes())
		}
		if counted, seen := count(back); counted != want || seen != want {
			t.Fatalf("n=%d: read back, counted %d and enumerated %d, want %d", n, counted, seen, want)
		}

		perPivot := map[graph.VertexID]int64{}
		reference.ForEach(data, query, reference.Options{}, func(emb []graph.VertexID) bool {
			perPivot[emb[tree.Root]]++
			return true
		})
		if len(ix.Pivots()) < 2 {
			t.Fatalf("n=%d: %d pivots, want a partition with more than one block", n, len(ix.Pivots()))
		}
		for _, p := range ix.Pivots() {
			if counted, seen := count(ix.Restrict([]graph.VertexID{p})); counted != perPivot[p] || seen != perPivot[p] {
				t.Fatalf("n=%d: the view of pivot %d counts %d and enumerates %d, the reference %d", n, p, counted, seen, perPivot[p])
			}
		}
	}
}

// TestPhysicalBytesIsExact: PhysicalBytes, which the service cache charges
// an entry, is exactly the capacity of every column of every node times
// its element's size, for indexes of narrow vertices only (the golden
// pairs), with a wide one (gen.WidePair) and with cardinality columns of
// every width (gen.StarPair), built and read back.
func TestPhysicalBytesIsExact(t *testing.T) {
	check := func(name string, data, query *graph.Graph) {
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		for _, opts := range []ceci.Options{{}, {SkipRefinement: true}} {
			ix := ceci.Build(data, tree, opts)
			var file bytes.Buffer
			if _, err := ix.WriteTo(&file); err != nil {
				t.Fatal(err)
			}
			back, err := ceci.ReadIndex(&file, data, tree)
			if err != nil {
				t.Fatalf("%s: ReadIndex: %v", name, err)
			}
			for _, x := range []*ceci.Index{ix, back} {
				if got, want := x.PhysicalBytes(), x.ColumnBytes(); got != want {
					t.Fatalf("%s (%+v): PhysicalBytes %d, the columns hold %d", name, opts, got, want)
				}
			}
		}
	}
	gen.ForEachGoldenPair(func(name string, data, query *graph.Graph, _ int64) { check(name, data, query) })
	data, query := gen.WidePair(1<<16 + 1)
	check("wide", data, query)
	// Cardinality columns of four and eight bytes a value.
	data, query = gen.StarPair(256, 256)
	check("star-4", data, query)
	data, query = gen.StarPair(65536, 65536)
	check("star-8", data, query)
}

// TestCardWidths builds gen.StarPair with fans whose product lands on
// either side of each width boundary of a cardinality column (2^16 and
// 2^32) and past CardSaturation. The centre's column is as wide as its
// largest value needs (CheckColumns), every leaf's is two bytes, and
// CardAt, ClusterCardinality and TotalCardinality read back the int64
// products, built and read back; WriteTo → ReadIndex → WriteTo gives the
// same bytes and PhysicalBytes.
func TestCardWidths(t *testing.T) {
	for _, c := range []struct {
		fan   []int
		card  int64
		width int
	}{
		{[]int{255, 257}, 1<<16 - 1, 2},
		{[]int{256, 256}, 1 << 16, 4},
		{[]int{65535, 65537}, 1<<32 - 1, 4},
		{[]int{65536, 65536}, 1 << 32, 8},
		{[]int{2048, 2048, 2048, 2048, 2048, 2048}, ceci.CardSaturation, 8},
	} {
		data, query := gen.StarPair(c.fan...)
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		if tree.Root != 0 {
			t.Fatalf("%v: the root is u%d, want the centre", c.fan, tree.Root)
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		var file bytes.Buffer
		if _, err := ix.WriteTo(&file); err != nil {
			t.Fatal(err)
		}
		back, err := ceci.ReadIndex(bytes.NewReader(file.Bytes()), data, tree)
		if err != nil {
			t.Fatalf("%v: ReadIndex: %v", c.fan, err)
		}
		for _, x := range []*ceci.Index{ix, back} {
			if err := x.CheckColumns(); err != nil {
				t.Fatalf("%v: %v", c.fan, err)
			}
			for u := range x.Nodes {
				node, want := &x.Nodes[u], 2
				if u == int(tree.Root) {
					want = c.width
				}
				if got := node.CardWidth(); got != want {
					t.Fatalf("%v: u%d's cardinalities take %d bytes, want %d", c.fan, u, got, want)
				}
				for p := range node.Cands {
					if got := node.CardAt(uint32(p)); u != int(tree.Root) && got != 1 {
						t.Fatalf("%v: leaf u%d has cardinality %d at %d", c.fan, u, got, p)
					}
				}
			}
			root := &x.Nodes[tree.Root]
			if len(root.Cands) != 2 || root.CardAt(0) != c.card || root.CardAt(1) != 1 ||
				x.ClusterCardinality(0) != c.card || x.ClusterCardinality(1) != 1 ||
				x.TotalCardinality() != min(c.card+1, ceci.CardSaturation) {
				t.Fatalf("%v: the centre's cardinalities are %d and %d (clusters %d, %d; total %d), want %d and 1",
					c.fan, root.CardAt(0), root.CardAt(1), x.ClusterCardinality(0), x.ClusterCardinality(1), x.TotalCardinality(), c.card)
			}
		}
		var again bytes.Buffer
		if _, err := back.WriteTo(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(file.Bytes(), again.Bytes()) || back.PhysicalBytes() != ix.PhysicalBytes() {
			t.Fatalf("%v: read back, %d bytes and PhysicalBytes %d; written, %d and %d", c.fan, again.Len(), back.PhysicalBytes(), file.Len(), ix.PhysicalBytes())
		}
	}
}
