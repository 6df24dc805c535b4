package graph

import (
	"math/rand"
	"slices"
	"sort"
	"sync"
	"testing"
)

// refNeighborsWithLabel is the filtered-scan reference the grouped index
// must agree with.
func refNeighborsWithLabel(g *Graph, v VertexID, l Label) []VertexID {
	var out []VertexID
	for _, w := range g.Neighbors(v) {
		if g.HasLabel(w, l) {
			out = append(out, w)
		}
	}
	return out
}

func eqIDs(a, b []VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestNeighborsWithLabelMatchesScan(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	const n, labels = 200, 7
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(VertexID(v), Label(rng.Intn(labels)))
		if rng.Intn(4) == 0 {
			b.AddExtraLabel(VertexID(v), Label(rng.Intn(labels)))
		}
	}
	for i := 0; i < 5*n; i++ {
		b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	g := b.MustBuild()

	for v := 0; v < n; v++ {
		for l := 0; l < labels+1; l++ { // +1: a label past the alphabet
			got := g.NeighborsWithLabel(VertexID(v), Label(l))
			want := refNeighborsWithLabel(g, VertexID(v), Label(l))
			if !eqIDs(got, want) {
				t.Fatalf("NeighborsWithLabel(%d, %d) = %v, want %v", v, l, got, want)
			}
		}
	}
}

// TestRunLookupAcrossMaskEnd: a run of a label below 32 is found by its
// bit in the vertex's run head and a popcount, one from 32 up by a binary
// search past those runs. Labels on both sides of the boundary, present and
// absent, must give the scan's neighbors and the signature's NLC verdict —
// for counts of one, answered by the bit alone, and for larger ones.
func TestRunLookupAcrossMaskEnd(t *testing.T) {
	alphabet := []Label{0, 1, 30, 31, 32, 33, 63, 64, 127, 1 << 20}
	probes := append([]Label{2, 34, 1<<20 + 1}, alphabet...) // some no vertex carries
	for seed := int64(0); seed < 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 20 + rng.Intn(60)
		b := NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetLabel(VertexID(v), alphabet[rng.Intn(len(alphabet))])
			for rng.Intn(3) == 0 {
				b.AddExtraLabel(VertexID(v), alphabet[rng.Intn(len(alphabet))])
			}
		}
		for i := 0; i < 6*n; i++ {
			b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		for v := 0; v < n; v++ {
			sig := NLCOf(g, VertexID(v))
			for _, l := range probes {
				got, want := g.NeighborsWithLabel(VertexID(v), l), refNeighborsWithLabel(g, VertexID(v), l)
				if !eqIDs(got, want) {
					t.Fatalf("seed %d: NeighborsWithLabel(%d, %d) = %v, want %v", seed, v, l, got, want)
				}
				for _, c := range []int32{1, int32(len(want)), int32(len(want)) + 1} {
					req := NLCSignature{Labels: []Label{l}, Counts: []int32{max(c, 1)}}
					if got, want := g.NLCCovers(VertexID(v), CompileNLC(req)), sig.Covers(req); got != want {
						t.Fatalf("seed %d: NLCCovers(%d, %+v) = %v, signature %+v says %v", seed, v, req, got, sig, want)
					}
				}
			}
			if !g.NLCCovers(VertexID(v), CompileNLC(sig)) {
				t.Fatalf("seed %d: vertex %d does not cover its own signature %+v", seed, v, sig)
			}
		}
	}
}

func TestNeighborsWithLabelSingleLabelFastPath(t *testing.T) {
	g, err := FromEdgeList([][2]VertexID{{0, 1}, {1, 2}, {0, 2}})
	if err != nil {
		t.Fatal(err)
	}
	for v := VertexID(0); v < 3; v++ {
		if !eqIDs(g.NeighborsWithLabel(v, 0), g.Neighbors(v)) {
			t.Fatalf("single-label fast path diverged at %d", v)
		}
		if got := g.NeighborsWithLabel(v, 1); got != nil {
			t.Fatalf("label 1 on unlabeled graph: %v", got)
		}
	}
}

func TestNeighborsWithLabelConcurrentFirstUse(t *testing.T) {
	b := NewBuilder(100)
	for v := 0; v < 100; v++ {
		b.SetLabel(VertexID(v), Label(v%3))
	}
	for v := 0; v < 99; v++ {
		b.AddEdge(VertexID(v), VertexID(v+1))
	}
	g := b.MustBuild()

	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for v := 0; v < 100; v++ {
				l := Label((v + w) % 3)
				got := g.NeighborsWithLabel(VertexID(v), l)
				want := refNeighborsWithLabel(g, VertexID(v), l)
				if !eqIDs(got, want) {
					t.Errorf("concurrent NeighborsWithLabel(%d, %d) diverged", v, l)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestRunsWithLabelMatchesLookup: the batched lookup gives every vertex the
// run NeighborsWithLabel gives it, for every label from 0 to two past the
// largest — on both sides of 32, present and absent — on graphs whose
// largest label is below 30, at the mask's end and past it, on single-label
// and unlabeled graphs, and for an empty frontier. The last vertex's absent
// labels below 32 point its run index at the end of runs, which the second
// sentinel keeps in range.
func TestRunsWithLabelMatchesLookup(t *testing.T) {
	check := func(t *testing.T, g *Graph, maxLabel Label) {
		t.Helper()
		n := g.NumVertices()
		all := make([]VertexID, n)
		for v := range all {
			all[v] = VertexID(v)
		}
		// A reused dst longer than the frontier comes back cut to it.
		dst := make([][]VertexID, n+3)
		for l := Label(0); l <= maxLabel+2; l++ {
			for _, vs := range [][]VertexID{all, {VertexID(n - 1)}, {VertexID(n - 1), 0, VertexID(n - 1)}} {
				dst = g.RunsWithLabel(vs, l, dst)
				if len(dst) != len(vs) {
					t.Fatalf("label %d: %d runs for %d vertices", l, len(dst), len(vs))
				}
				for i, v := range vs {
					if want := g.NeighborsWithLabel(v, l); !eqIDs(dst[i], want) {
						t.Fatalf("label %d: run of vertex %d = %v, NeighborsWithLabel says %v", l, v, dst[i], want)
					}
				}
			}
			if got := g.RunsWithLabel(nil, l, dst); len(got) != 0 {
				t.Fatalf("label %d: empty frontier gave %d runs", l, len(got))
			}
		}
	}
	for _, maxLabel := range []Label{5, 29, 31, 32, 40, 70} {
		for seed := int64(0); seed < 8; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 10 + rng.Intn(50)
			b := NewBuilder(n)
			for v := 0; v < n; v++ {
				b.SetLabel(VertexID(v), Label(rng.Intn(int(maxLabel)+1)))
				for rng.Intn(3) == 0 {
					b.AddExtraLabel(VertexID(v), Label(rng.Intn(int(maxLabel)+1)))
				}
			}
			b.SetLabel(VertexID(n-1), maxLabel) // the alphabet ends at maxLabel
			for i := 0; i < 5*n; i++ {
				b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
			}
			check(t, b.MustBuild(), maxLabel)
		}
	}
	// The last vertex's only run is its first label's: every larger label
	// below 32 is absent and indexes the end of runs.
	b := NewBuilder(3)
	b.SetLabel(0, 4)
	b.SetLabel(1, 0)
	b.SetLabel(2, 1)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(0, 2)
	check(t, b.MustBuild(), 4)
	// Single-label: every label but 0 is empty.
	b = NewBuilder(6)
	for v := 0; v < 5; v++ {
		b.AddEdge(VertexID(v), VertexID(v+1))
	}
	check(t, b.MustBuild(), 0)
	unlabeled, err := FromEdgeList([][2]VertexID{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	if err != nil {
		t.Fatal(err)
	}
	check(t, unlabeled, 0)
}

// sortedLabelAdj lays the grouped adjacency out the plain way: each
// vertex's (label, neighbor) pairs sorted by label, then ID, and cut into
// runs where the label changes.
func sortedLabelAdj(g *Graph) (heads []runHead, runs []labelRun, groups []VertexID) {
	type pair struct {
		l Label
		w VertexID
	}
	n := g.NumVertices()
	heads = make([]runHead, n+1)
	for v := 0; v < n; v++ {
		var ps []pair
		for _, w := range g.Neighbors(VertexID(v)) {
			for _, l := range g.Labels(w) {
				ps = append(ps, pair{l, w})
			}
		}
		sort.Slice(ps, func(i, j int) bool {
			if ps[i].l != ps[j].l {
				return ps[i].l < ps[j].l
			}
			return ps[i].w < ps[j].w
		})
		h := &heads[v]
		h.start = int32(len(runs))
		for i, p := range ps {
			if i == 0 || p.l != ps[i-1].l {
				runs = append(runs, labelRun{p.l, int32(len(groups))})
				if p.l < 32 {
					h.low |= 1 << p.l
				}
			} else if p.l < 32 {
				h.twos |= 1 << p.l
			}
			groups = append(groups, p.w)
		}
	}
	heads[n].start = int32(len(runs))
	end := labelRun{off: int32(len(groups))}
	return heads, append(runs, end, end), groups
}

// TestLabelAdjMatchesSortedReference: the grouped adjacency is built by
// counting each vertex's neighbors per label rank; its heads, runs and
// groups must be those the plain sort gives, on graphs whose labels sit
// on both sides of the run head's 32-bit mask and near MaxLabelValue,
// with extra labels, isolated vertices and repeated edges. The small
// alphabets put each vertex's ranks in order by reading the counts; the
// wide one, where a vertex touches few of the ranks, by sorting them.
func TestLabelAdjMatchesSortedReference(t *testing.T) {
	wide := []Label{}
	for l := Label(0); l < 100; l++ {
		wide = append(wide, l, MaxLabelValue-l)
	}
	alphabets := [][]Label{
		{31, 32, 33},
		{0, 1, 31, 32, 33, MaxLabelValue - 1},
		{2, 33, MaxLabelValue},
		{5},
		wide,
	}
	for _, alphabet := range alphabets {
		for seed := int64(0); seed < 10; seed++ {
			rng := rand.New(rand.NewSource(seed))
			n := 5 + rng.Intn(80)
			b := NewBuilder(n)
			for v := 0; v < n; v++ {
				b.SetLabel(VertexID(v), alphabet[rng.Intn(len(alphabet))])
				for rng.Intn(3) == 0 {
					b.AddExtraLabel(VertexID(v), alphabet[rng.Intn(len(alphabet))])
				}
			}
			for i := rng.Intn(8 * n); i > 0; i-- {
				b.AddEdge(VertexID(rng.Intn(n-1)), VertexID(rng.Intn(n-1))) // vertex n-1 stays isolated
			}
			g := b.MustBuild()
			g.ladj.build(g)
			heads, runs, groups := sortedLabelAdj(g)
			if !slices.Equal(g.ladj.heads, heads) || !slices.Equal(g.ladj.runs, runs) || !slices.Equal(g.ladj.groups, groups) {
				t.Fatalf("alphabet %v, seed %d: grouped adjacency differs from the sorted reference", alphabet, seed)
			}
		}
	}
}

// BenchmarkLabelIndex builds the grouped adjacency of a graph shaped like
// hu_s: 4 600 vertices, 700 000 random edges, one to three of 90 labels a
// vertex.
func BenchmarkLabelIndex(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n, m, labels = 4600, 700000, 90
	gb := NewBuilder(n)
	for v := 0; v < n; v++ {
		gb.SetLabel(VertexID(v), Label(rng.Intn(labels)))
		for k := rng.Intn(3); k > 0; k-- {
			gb.AddExtraLabel(VertexID(v), Label(rng.Intn(labels)))
		}
	}
	for i := 0; i < m; i++ {
		gb.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	g := gb.MustBuild()
	b.ReportAllocs()
	for range b.N {
		g.ladj = labelAdj{}
		g.ladj.build(g)
	}
}
