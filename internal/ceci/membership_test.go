package ceci

import (
	"math/rand"
	"slices"
	"testing"

	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/setops"
	"ceci/internal/stats"
)

// randomSet returns up to n distinct ascending ids below universe.
func randomSet(rng *rand.Rand, n, universe int) []graph.VertexID {
	out := make([]graph.VertexID, 0, n)
	for i := 0; i < n; i++ {
		out = append(out, graph.VertexID(rng.Intn(universe)))
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// TestPosTableIntersectMatchesMerge: "is w in the column?" asked of the
// position table must give the merge intersection, in order and after
// what dst already held, whatever an earlier column left in the table —
// entries that point past the column, or at a position holding another
// vertex — and for an empty column and a column of one.
func TestPosTableIntersectMatchesMerge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	var table posTable
	for trial := 0; trial < 500; trial++ {
		universe := 1 + rng.Intn(300)
		table.fill(randomSet(rng, rng.Intn(2*universe), universe), universe) // stale entries
		col := randomSet(rng, rng.Intn(universe+1), universe)
		switch trial % 10 {
		case 0:
			col = nil
		case 1:
			col = col[:min(len(col), 1)]
		}
		vs := randomSet(rng, rng.Intn(universe+1), universe)
		prefix := []graph.VertexID{999, 1000}
		dst := append(make([]graph.VertexID, 0, len(prefix)+len(vs)), prefix...) // room for every member of vs
		got := table.fill(col, universe).intersect(dst, vs, col)
		want := append(slices.Clone(prefix), setops.Intersect(nil, vs, col)...)
		if !slices.Equal(got, want) {
			t.Fatalf("trial %d: intersect(%v, %v) = %v, want %v", trial, vs, col, got, want)
		}
	}
}

// TestSieveMatchesHistogram: the branch-free sieve keeps the vertices a
// verdict-at-least-keep test keeps, and its lanes hold the histogram of
// verdicts below Pass plus the survivors, for stretches up to the 2^16-1
// a lane can count.
func TestSieveMatchesHistogram(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const universe = 1 << 17
	verdicts := make([]order.Verdict, universe)
	for v := range verdicts {
		verdicts[v] = order.Verdict(rng.Intn(int(order.Pass) + 1))
	}
	for _, keep := range []order.Verdict{order.Pass, order.DropNLC} {
		step := sieveSteps(keep)
		for _, n := range []int{0, 1, 17, 1000, 1<<16 - 1} {
			vs := make([]graph.VertexID, n)
			for i := range vs {
				vs[i] = graph.VertexID(rng.Intn(universe))
			}
			var wantKept []graph.VertexID
			var hist [order.Pass + 1]uint64
			for _, v := range vs {
				hist[verdicts[v]]++
				if verdicts[v] >= keep {
					wantKept = append(wantKept, v)
				}
			}
			dst := append(make([]graph.VertexID, 0, 2+n), 5, 6)
			got, lanes := sieve(dst, vs, verdicts, &step)
			if !slices.Equal(got[2:], wantKept) || got[0] != 5 || got[1] != 6 {
				t.Fatalf("keep %d, n %d: sieve kept %d vertices, want %d", keep, n, len(got)-2, len(wantKept))
			}
			for c := order.DropLabel; c < order.Pass; c++ {
				if lane := lanes >> (16 * c) & 0xffff; lane != hist[c] {
					t.Fatalf("keep %d, n %d: lane %d = %d, want %d", keep, n, c, lane, hist[c])
				}
			}
			if lanes>>48 != uint64(len(wantKept)) {
				t.Fatalf("keep %d, n %d: survivor lane = %d, want %d", keep, n, lanes>>48, len(wantKept))
			}
		}
	}
}

// TestFunnelPastOneLane expands a frontier vertex with more neighbors of
// one verdict than a 16-bit lane counts: the hub's 70 000 label-1 leaves
// are 66 000 of degree one (dropped by degree), 2 000 whose other neighbor
// carries label 3 (dropped by NLC) and 2 000 whose other neighbor is the
// label-2 vertex the query asks for. The funnel is summed
// across the stretches filterNeighborsInto sieves, so the counts are
// exact.
func TestFunnelPastOneLane(t *testing.T) {
	const byDegree, byNLC, pass = 66000, 2000, 2000
	leaves := byDegree + byNLC + pass
	hub, two, three := graph.VertexID(0), graph.VertexID(1), graph.VertexID(2)
	b := graph.NewBuilder(3 + leaves)
	b.SetLabel(hub, 0)
	b.SetLabel(two, 2)
	b.SetLabel(three, 3)
	for i := 0; i < leaves; i++ {
		leaf := graph.VertexID(3 + i)
		b.SetLabel(leaf, 1)
		b.AddEdge(hub, leaf)
		switch {
		case i >= byDegree+byNLC:
			b.AddEdge(leaf, two)
		case i >= byDegree:
			b.AddEdge(leaf, three)
		}
	}
	data := b.MustBuild()
	q := graph.NewBuilder(3) // u0(0) - u1(1) - u2(2)
	for u := 0; u < 3; u++ {
		q.SetLabel(graph.VertexID(u), graph.Label(u))
	}
	q.AddEdge(0, 1)
	q.AddEdge(1, 2)
	tree, err := order.Preprocess(data, q.MustBuild(), order.Options{ForcedRoot: 0, Heuristic: order.BFSOrder})
	if err != nil {
		t.Fatal(err)
	}
	st := &stats.Counters{}
	ix := Build(data, tree, Options{Workers: 1, Stats: st})
	if got := len(ix.Nodes[1].Cands); got != pass {
		t.Fatalf("u1 has %d candidates, want %d", got, pass)
	}
	if got := st.FilteredDegree.Load(); got != byDegree {
		t.Errorf("filtered by degree %d, want %d", got, byDegree)
	}
	if got := st.FilteredNLC.Load(); got != byNLC {
		t.Errorf("filtered by NLC %d, want %d", got, byNLC)
	}
}
