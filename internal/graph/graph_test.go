package graph_test

import (
	"bytes"
	"math/rand"
	"reflect"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"ceci/internal/graph"
)

func triangleWithTail() *graph.Graph {
	b := graph.NewBuilder(4)
	b.SetLabel(0, 1)
	b.SetLabel(1, 2)
	b.SetLabel(2, 2)
	b.SetLabel(3, 3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	b.AddEdge(2, 0)
	b.AddEdge(2, 3)
	return b.MustBuild()
}

func TestBuilderBasics(t *testing.T) {
	g := triangleWithTail()
	if g.NumVertices() != 4 || g.NumEdges() != 4 {
		t.Fatalf("got %v", g)
	}
	if g.Degree(2) != 3 || g.Degree(3) != 1 {
		t.Fatalf("degrees: %d %d", g.Degree(2), g.Degree(3))
	}
	if g.Label(0) != 1 || g.Label(3) != 3 {
		t.Fatal("labels wrong")
	}
	if g.NumLabels() != 4 {
		t.Fatalf("numLabels = %d", g.NumLabels())
	}
}

func TestBuilderDeduplicatesAndIgnoresSelfLoops(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1)
	b.AddEdge(1, 0) // duplicate, reversed
	b.AddEdge(0, 1) // duplicate
	b.AddEdge(2, 2) // self loop
	g := b.MustBuild()
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1", g.NumEdges())
	}
	if g.Degree(2) != 0 {
		t.Fatal("self loop retained")
	}
}

func TestBuilderGrowOnEdge(t *testing.T) {
	b := &graph.Builder{}
	b.AddEdge(5, 9)
	g := b.MustBuild()
	if g.NumVertices() != 10 {
		t.Fatalf("vertices = %d, want 10", g.NumVertices())
	}
}

func TestEmptyGraphRejected(t *testing.T) {
	b := &graph.Builder{}
	if _, err := b.Build(); err == nil {
		t.Fatal("empty graph accepted")
	}
}

func TestHasEdge(t *testing.T) {
	g := triangleWithTail()
	cases := []struct {
		u, v graph.VertexID
		want bool
	}{
		{0, 1, true}, {1, 0, true}, {2, 3, true}, {0, 3, false}, {1, 3, false},
	}
	for _, c := range cases {
		if got := g.HasEdge(c.u, c.v); got != c.want {
			t.Errorf("HasEdge(%d,%d) = %v", c.u, c.v, got)
		}
	}
}

func TestNeighborsSorted(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	b := graph.NewBuilder(50)
	for i := 0; i < 300; i++ {
		u, v := rng.Intn(50), rng.Intn(50)
		if u != v {
			b.AddEdge(graph.VertexID(u), graph.VertexID(v))
		}
	}
	g := b.MustBuild()
	for v := 0; v < g.NumVertices(); v++ {
		nbrs := g.Neighbors(graph.VertexID(v))
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("adjacency of %d not strictly sorted: %v", v, nbrs)
			}
		}
	}
}

func TestLabelIndex(t *testing.T) {
	g := triangleWithTail()
	if got := g.VerticesWithLabel(2); len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("label 2 vertices = %v", got)
	}
	if got := g.VerticesWithLabel(99); got != nil {
		t.Fatalf("out-of-range label gave %v", got)
	}
	if g.LabelFrequency(2) != 2 || g.LabelFrequency(1) != 1 {
		t.Fatal("label frequencies wrong")
	}
}

func TestMultiLabels(t *testing.T) {
	b := graph.NewBuilder(2)
	b.SetLabel(0, 5)
	b.AddExtraLabel(0, 9)
	b.AddExtraLabel(0, 3)
	b.AddExtraLabel(0, 9) // duplicate ignored
	b.AddEdge(0, 1)
	g := b.MustBuild()
	labels := g.Labels(0)
	if len(labels) != 3 || labels[0] != 5 {
		t.Fatalf("labels = %v", labels)
	}
	for _, l := range []graph.Label{3, 5, 9} {
		if !g.HasLabel(0, l) {
			t.Fatalf("missing label %d", l)
		}
	}
	if g.HasLabel(0, 4) || g.HasLabel(1, 5) {
		t.Fatal("phantom label")
	}
	// Label index covers extras.
	if got := g.VerticesWithLabel(9); len(got) != 1 || got[0] != 0 {
		t.Fatalf("extra-label index = %v", got)
	}
}

// TestLabelsIsAView: Labels reads a vertex's labels off the label column —
// primary first, then the extras ascending — without allocating, and an
// append to the result cannot write into the next vertex's labels.
func TestLabelsIsAView(t *testing.T) {
	b := graph.NewBuilder(3)
	b.SetLabel(0, 5)
	b.AddExtraLabel(0, 9)
	b.AddExtraLabel(0, 1)
	b.SetLabel(1, 7)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	var got []graph.Label
	if allocs := testing.AllocsPerRun(100, func() { got = g.Labels(0) }); allocs != 0 {
		t.Fatalf("Labels of a multi-labeled vertex: %v allocations, want 0", allocs)
	}
	if !slices.Equal(got, []graph.Label{5, 1, 9}) {
		t.Fatalf("Labels(0) = %v, want [5 1 9]", got)
	}
	_ = append(got, 4)
	_ = append(g.Labels(2), 4)
	if !slices.Equal(g.Labels(1), []graph.Label{7}) || !slices.Equal(g.Labels(2), []graph.Label{0}) {
		t.Fatalf("an append to a view changed the labels: %v %v", g.Labels(1), g.Labels(2))
	}
}

func TestEdgesIteration(t *testing.T) {
	g := triangleWithTail()
	seen := map[[2]graph.VertexID]bool{}
	g.Edges(func(u, v graph.VertexID) bool {
		if u >= v {
			t.Fatalf("edge not normalized: (%d,%d)", u, v)
		}
		seen[[2]graph.VertexID{u, v}] = true
		return true
	})
	if len(seen) != 4 {
		t.Fatalf("visited %d edges, want 4", len(seen))
	}
	// Early stop.
	count := 0
	g.Edges(func(u, v graph.VertexID) bool {
		count++
		return false
	})
	if count != 1 {
		t.Fatalf("early stop visited %d", count)
	}
}

func TestMaxDegree(t *testing.T) {
	if got := triangleWithTail().MaxDegree(); got != 3 {
		t.Fatalf("max degree = %d", got)
	}
}

func TestNLCSignature(t *testing.T) {
	g := triangleWithTail()
	// Vertex 2's neighbors: 0 (label 1), 1 (label 2), 3 (label 3).
	sig := graph.NLCOf(g, 2)
	want := graph.NLCSignature{Labels: []graph.Label{1, 2, 3}, Counts: []int32{1, 1, 1}}
	if !reflect.DeepEqual(sig, want) {
		t.Fatalf("signature = %+v", sig)
	}
	// Vertex 0: neighbors 1, 2 both label 2.
	sig0 := graph.NLCOf(g, 0)
	want0 := graph.NLCSignature{Labels: []graph.Label{2}, Counts: []int32{2}}
	if !reflect.DeepEqual(sig0, want0) {
		t.Fatalf("signature(0) = %+v", sig0)
	}
}

func TestNLCCovers(t *testing.T) {
	a := graph.NLCSignature{Labels: []graph.Label{1, 2, 5}, Counts: []int32{2, 1, 3}}
	cases := []struct {
		req  graph.NLCSignature
		want bool
	}{
		{graph.NLCSignature{}, true},
		{graph.NLCSignature{Labels: []graph.Label{1}, Counts: []int32{2}}, true},
		{graph.NLCSignature{Labels: []graph.Label{1}, Counts: []int32{3}}, false},
		{graph.NLCSignature{Labels: []graph.Label{1, 5}, Counts: []int32{1, 3}}, true},
		{graph.NLCSignature{Labels: []graph.Label{3}, Counts: []int32{1}}, false},
		{graph.NLCSignature{Labels: []graph.Label{1, 2, 5}, Counts: []int32{2, 1, 3}}, true},
	}
	for i, c := range cases {
		if got := a.Covers(c.req); got != c.want {
			t.Errorf("case %d: Covers = %v", i, got)
		}
	}
}

// TestNLCDenseMatchesMap: the sort-and-count signature must agree with
// the map-based reference.
func TestNLCDenseMatchesMap(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		n := 5 + rng.Intn(30)
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			b.SetLabel(graph.VertexID(v), graph.Label(rng.Intn(6)))
		}
		for i := 0; i < 3*n; i++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(graph.VertexID(u), graph.VertexID(v))
			}
		}
		g := b.MustBuild()
		for v := 0; v < n; v++ {
			sig := graph.NLCOf(g, graph.VertexID(v))
			// Reference: recount with a map.
			want := map[graph.Label]int32{}
			for _, w := range g.Neighbors(graph.VertexID(v)) {
				want[g.Label(w)]++
			}
			if len(sig.Labels) != len(want) {
				return false
			}
			for i, l := range sig.Labels {
				if sig.Counts[i] != want[l] {
					return false
				}
				if i > 0 && sig.Labels[i-1] >= l {
					return false // must be sorted
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestNLCCoversMatchesSignature: the compiled NLC test — two run-head
// masks for the labels below 32 required once or twice, a run lookup for
// the rest — must agree with materializing the signature and calling
// Covers. Requirements ask 1 to 4 neighbors of labels on both sides of 32,
// alone and in pairs, and every vertex's own signature raised by one, on
// multi-label graphs (a neighbor counts once per label it carries) and on
// single-label ones (the degree shortcut).
func TestNLCCoversMatchesSignature(t *testing.T) {
	alphabet := []graph.Label{0, 1, 2, 30, 31, 32, 33, 64}
	probes := append([]graph.Label{3, 34, 200}, alphabet...) // some no vertex carries
	for seed := int64(0); seed < 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 8 + rng.Intn(40)
		single := seed%4 == 0
		b := graph.NewBuilder(n)
		for v := 0; v < n; v++ {
			if single {
				continue
			}
			b.SetLabel(graph.VertexID(v), alphabet[rng.Intn(len(alphabet))])
			for rng.Intn(3) == 0 {
				b.AddExtraLabel(graph.VertexID(v), alphabet[rng.Intn(len(alphabet))])
			}
		}
		for i := 0; i < 4*n; i++ {
			b.AddEdge(graph.VertexID(rng.Intn(n)), graph.VertexID(rng.Intn(n)))
		}
		g := b.MustBuild()
		reqs := []graph.NLCSignature{{}}
		for _, l := range probes {
			for c := int32(1); c <= 4; c++ {
				reqs = append(reqs, graph.NLCSignature{Labels: []graph.Label{l}, Counts: []int32{c}})
				m := probes[rng.Intn(len(probes))]
				if m != l {
					pair := graph.NLCSignature{Labels: []graph.Label{min(l, m), max(l, m)}, Counts: []int32{c, 1 + rng.Int31n(4)}}
					if m < l {
						pair.Counts[0], pair.Counts[1] = pair.Counts[1], pair.Counts[0]
					}
					reqs = append(reqs, pair)
				}
			}
		}
		for v := 0; v < n; v++ {
			sig := graph.NLCOf(g, graph.VertexID(v))
			reqs = append(reqs, sig)
			if len(sig.Labels) > 0 {
				up := graph.NLCSignature{Labels: sig.Labels, Counts: append([]int32(nil), sig.Counts...)}
				up.Counts[rng.Intn(len(up.Counts))]++
				reqs = append(reqs, up)
			}
		}
		for v := 0; v < n; v++ {
			sig := graph.NLCOf(g, graph.VertexID(v))
			for _, req := range reqs {
				if got, want := g.NLCCovers(graph.VertexID(v), graph.CompileNLC(req)), sig.Covers(req); got != want {
					t.Fatalf("seed %d: NLCCovers(%d, %+v) = %v, signature %+v says %v", seed, v, req, got, sig, want)
				}
			}
		}
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	in := "# comment\n0 1\n1 2\n\n2 0\n"
	g, err := graph.LoadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 3 || g.NumEdges() != 3 {
		t.Fatalf("got %v", g)
	}
}

func TestEdgeListErrors(t *testing.T) {
	for _, bad := range []string{"0\n", "a b\n", "0 x\n"} {
		if _, err := graph.LoadEdgeList(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
}

func TestLabeledRoundTrip(t *testing.T) {
	g := triangleWithTail()
	var buf bytes.Buffer
	if err := graph.WriteLabeled(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.LoadLabeled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	assertSameGraph(t, g, g2)
}

func TestLabeledMultiLabelRoundTrip(t *testing.T) {
	b := graph.NewBuilder(3)
	b.SetLabel(0, 1)
	b.AddExtraLabel(0, 7)
	b.SetLabel(1, 2)
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	g := b.MustBuild()
	var buf bytes.Buffer
	if err := graph.WriteLabeled(&buf, g); err != nil {
		t.Fatal(err)
	}
	g2, err := graph.LoadLabeled(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !g2.HasLabel(0, 7) || g2.Label(0) != 1 {
		t.Fatal("multi-labels lost in round trip")
	}
}

func TestLabeledErrors(t *testing.T) {
	for _, bad := range []string{"v 0\n", "e 0\n", "x 1 2\n", "v a 1\n", "e 0 b\n", "v 0 1\nv 0 2\n"} {
		if _, err := graph.LoadLabeled(strings.NewReader(bad)); err == nil {
			t.Errorf("input %q accepted", bad)
		}
	}
	// A second declaration would merge its labels into the first one's.
	_, err := graph.LoadLabeled(strings.NewReader("v 0 70 9 9 0\nv 0 000\n"))
	if err == nil || !strings.Contains(err.Error(), "line 2: duplicate vertex 0") {
		t.Errorf("vertex declared twice: err = %v", err)
	}
}

func assertSameGraph(t *testing.T, a, b *graph.Graph) {
	t.Helper()
	if a.NumVertices() != b.NumVertices() || a.NumEdges() != b.NumEdges() {
		t.Fatalf("shape mismatch: %v vs %v", a, b)
	}
	for v := 0; v < a.NumVertices(); v++ {
		if a.Label(graph.VertexID(v)) != b.Label(graph.VertexID(v)) {
			t.Fatalf("label mismatch at %d", v)
		}
		na, nb := a.Neighbors(graph.VertexID(v)), b.Neighbors(graph.VertexID(v))
		if len(na) != len(nb) {
			t.Fatalf("adjacency mismatch at %d", v)
		}
		for i := range na {
			if na[i] != nb[i] {
				t.Fatalf("adjacency mismatch at %d", v)
			}
		}
	}
}

func TestBytesEstimatePositive(t *testing.T) {
	if triangleWithTail().BytesEstimate() <= 0 {
		t.Fatal("bytes estimate not positive")
	}
}

func TestFromEdgeList(t *testing.T) {
	g, err := graph.FromEdgeList([][2]graph.VertexID{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 2 {
		t.Fatalf("got %v", g)
	}
}
