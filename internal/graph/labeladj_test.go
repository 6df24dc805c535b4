package graph

import (
	"math/rand"
	"runtime"
	"runtime/debug"
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
// labels below 32 point its run index at the end of runs, which the
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

// sortedLabelAdj lays the grouped adjacency out the plain way: every
// (label, vertex, neighbor) entry sorted by label, then vertex, then ID,
// so each label's entries are its region and each vertex's within it its
// run; each vertex's runs are then listed in label order.
func sortedLabelAdj(g *Graph) (heads []runHead, runs []labelRun, regions []int32, groups []VertexID) {
	type entry struct {
		l    Label
		v, w VertexID
	}
	var es []entry
	n := g.NumVertices()
	for v := 0; v < n; v++ {
		for _, w := range g.Neighbors(VertexID(v)) {
			for _, l := range g.Labels(w) {
				es = append(es, entry{l, VertexID(v), w})
			}
		}
	}
	sort.Slice(es, func(i, j int) bool {
		if es[i].l != es[j].l {
			return es[i].l < es[j].l
		}
		if es[i].v != es[j].v {
			return es[i].v < es[j].v
		}
		return es[i].w < es[j].w
	})
	type key struct {
		v VertexID
		l Label
	}
	spans := map[key]labelRun{}
	labelsOf := make([][]Label, n) // the labels of each vertex's runs, ascending
	for i, e := range es {
		groups = append(groups, e.w)
		k := key{e.v, e.l}
		r, ok := spans[k]
		if !ok {
			r.off = int32(i)
			labelsOf[e.v] = append(labelsOf[e.v], e.l)
		}
		r.end = int32(i + 1)
		spans[k] = r
	}
	for _, l := range g.labelKeys {
		regions = append(regions, int32(sort.Search(len(es), func(i int) bool { return es[i].l >= l })))
	}
	regions = append(regions, int32(len(es)))
	heads = make([]runHead, n+1)
	for v := 0; v < n; v++ {
		h := &heads[v]
		h.start = int32(len(runs))
		for _, l := range labelsOf[v] {
			r := spans[key{VertexID(v), l}]
			runs = append(runs, r)
			if l < 32 {
				h.low |= 1 << l
				if r.end-r.off >= 2 {
					h.twos |= 1 << l
				}
			}
		}
	}
	heads[n].start = int32(len(runs))
	return heads, append(runs, labelRun{}), regions, groups
}

// TestLabelAdjMatchesSortedReference: the grouped adjacency is built by
// counting each vertex's neighbors per label rank; its heads, runs,
// regions and groups must be those the plain sort gives, on graphs whose
// labels sit on both sides of the run head's 32-bit mask and near
// MaxLabelValue, with extra labels, isolated vertices and repeated edges. The small
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
			heads, runs, regions, groups := sortedLabelAdj(g)
			la := &g.ladj
			if !slices.Equal(la.heads, heads) || !slices.Equal(la.runs, runs) || !slices.Equal(la.regions, regions) || !slices.Equal(la.groups, groups) {
				t.Fatalf("alphabet %v, seed %d: grouped adjacency differs from the sorted reference", alphabet, seed)
			}
		}
	}
}

// randomLabeled draws a graph of n vertices and m random edges, each
// vertex carrying one to three labels of alphabet.
func randomLabeled(seed int64, n, m int, alphabet []Label) *Graph {
	rng := rand.New(rand.NewSource(seed))
	b := NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(VertexID(v), alphabet[rng.Intn(len(alphabet))])
		for k := rng.Intn(3); k > 0; k-- {
			b.AddExtraLabel(VertexID(v), alphabet[rng.Intn(len(alphabet))])
		}
	}
	for i := 0; i < m; i++ {
		b.AddEdge(VertexID(rng.Intn(n)), VertexID(rng.Intn(n)))
	}
	return b.MustBuild()
}

// TestLabelRunsAreLabelMajor: groups is laid out label by label. Taken in
// label order and, within a label, in vertex order, the runs tile groups
// front to back — each starts where the one before it ended, so no gap
// and no overlap — and each label's runs exactly fill its region. The
// frontier expansions rely on it: an ascending frontier's runs of one
// label are read front to back. Labels sit on both sides of 32.
func TestLabelRunsAreLabelMajor(t *testing.T) {
	var alphabet []Label
	for l := Label(0); l < 90; l++ {
		alphabet = append(alphabet, l)
	}
	for seed := int64(0); seed < 5; seed++ {
		g := randomLabeled(seed, 50+20*int(seed), 600, alphabet)
		g.ladj.build(g)
		la := &g.ladj
		at, seen := int32(0), 0
		for r, l := range g.labelKeys {
			if la.regions[r] != at {
				t.Fatalf("seed %d: label %d's region starts at %d, the runs before it end at %d", seed, l, la.regions[r], at)
			}
			for v := 0; v < g.NumVertices(); v++ {
				i, ok := g.findRun(VertexID(v), l)
				if !ok {
					continue
				}
				if run := la.runs[i]; run.off != at || run.end <= run.off {
					t.Fatalf("seed %d: vertex %d's run of label %d is groups[%d:%d], want it to start at %d", seed, v, l, run.off, run.end, at)
				}
				at = la.runs[i].end
				seen++
			}
			if la.regions[r+1] != at {
				t.Fatalf("seed %d: label %d's runs end at %d, its region at %d", seed, l, at, la.regions[r+1])
			}
		}
		if int(at) != len(la.groups) || seen != int(la.heads[g.NumVertices()].start) {
			t.Fatalf("seed %d: the runs tile groups[:%d] of %d, and %d of the %d runs", seed, at, len(la.groups), seen, la.heads[g.NumVertices()].start)
		}
	}
}

// TestLabelRunsAllocateInProportion: building the label runs of a graph
// shaped like hu_s, scaled down (1 000 vertices, 40 000 edges, one to
// three of 90 labels a vertex), keeps little past what the layout needs —
// 4 bytes an entry of groups, 8 a run record, 12 a run head — and
// allocates little past what it keeps. The run directory is counted
// before it is allocated, so what is kept reads 0.98 to 1.01 times the
// need (the heap's own reading moves by about 2 % between a first run and
// later ones in one process), and what is allocated 1.01 to 1.04 times
// what is kept. A directory sized for a run per (vertex, label) and
// trimmed only when a quarter of it is unused kept 1.09 times the need; a
// 12-byte run record reads 1.38 times; a second copy of groups or of the
// directory allocates over 1.25 times what is kept.
func TestLabelRunsAllocateInProportion(t *testing.T) {
	var alphabet []Label
	for l := Label(0); l < 90; l++ {
		alphabet = append(alphabet, l)
	}
	g := randomLabeled(1, 1000, 40000, alphabet)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, built, kept runtime.MemStats
	runtime.ReadMemStats(&before)
	g.ladj.build(g)
	runtime.ReadMemStats(&built)
	runtime.GC()
	runtime.ReadMemStats(&kept)
	la := &g.ladj
	allocated := built.TotalAlloc - before.TotalAlloc
	retained := kept.HeapAlloc - before.HeapAlloc
	need := uint64(4*len(la.groups) + 8*len(la.runs) + 12*len(la.heads) + 4*len(la.regions))
	t.Logf("%d entries, %d runs: retained %d (%.2fx the need), allocated %d (%.2fx retained)",
		len(la.groups), len(la.runs), retained, float64(retained)/float64(need), allocated, float64(allocated)/float64(retained))
	if retained > need+need*3/100 {
		t.Fatalf("the label runs keep %d bytes where the layout needs %d, over 1.03x", retained, need)
	}
	if allocated > retained+retained/4 {
		t.Fatalf("building the label runs allocated %d bytes for %d kept, over 1.25x", allocated, retained)
	}
}

// BenchmarkLabelIndex builds the grouped adjacency of a graph shaped like
// hu_s: 4 600 vertices, 700 000 random edges, one to three of 90 labels a
// vertex.
func BenchmarkLabelIndex(b *testing.B) {
	var alphabet []Label
	for l := Label(0); l < 90; l++ {
		alphabet = append(alphabet, l)
	}
	g := randomLabeled(1, 4600, 700000, alphabet)
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		g.ladj = labelAdj{}
		g.ladj.build(g)
	}
}
