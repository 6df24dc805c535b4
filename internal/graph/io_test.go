package graph_test

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"

	"ceci/internal/datasets"
	"ceci/internal/gen"
	"ceci/internal/graph"
)

// Golden-file coverage for the .lg loaders/writers: a known-good fixture
// must parse to the exact expected structure and survive a
// parse → write → parse round-trip; known-bad fixtures must fail with the
// loader's validation errors, not be silently repaired.

func TestGoldenLabeledFile(t *testing.T) {
	g, err := graph.LoadFile(filepath.Join("testdata", "golden_labeled.lg"))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumVertices() != 6 || g.NumEdges() != 7 {
		t.Fatalf("golden graph parsed as %v, want V=6 E=7", g)
	}
	wantLabels := map[graph.VertexID][]graph.Label{
		0: {0}, 1: {1, 5}, 2: {2}, 3: {0}, 4: {1}, 5: {3, 5, 7},
	}
	for v, want := range wantLabels {
		got := g.Labels(v)
		if len(got) != len(want) {
			t.Fatalf("vertex %d labels %v, want %v", v, got, want)
		}
		for _, l := range want {
			if !g.HasLabel(v, l) {
				t.Fatalf("vertex %d missing label %d (has %v)", v, l, got)
			}
		}
	}
	for _, e := range [][2]graph.VertexID{{0, 1}, {0, 2}, {1, 2}, {1, 3}, {2, 4}, {3, 4}, {4, 5}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v", e)
		}
	}
}

// TestGoldenRoundTrip: parse → write → parse must be the identity on
// every committed .lg fixture, including the Fig. 1 pair.
func TestGoldenRoundTrip(t *testing.T) {
	paths := []string{
		filepath.Join("testdata", "golden_labeled.lg"),
		filepath.Join("..", "..", "testdata", "fig1_data.lg"),
		filepath.Join("..", "..", "testdata", "fig1_query.lg"),
	}
	for _, path := range paths {
		g, err := graph.LoadFile(path)
		if err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		var buf bytes.Buffer
		if err := graph.WriteLabeled(&buf, g); err != nil {
			t.Fatalf("%s: write: %v", path, err)
		}
		g2, err := graph.LoadLabeled(bytes.NewReader(buf.Bytes()))
		if err != nil {
			t.Fatalf("%s: reparse: %v", path, err)
		}
		assertSameGraph(t, g, g2)
		for v := 0; v < g.NumVertices(); v++ {
			a, b := g.Labels(graph.VertexID(v)), g2.Labels(graph.VertexID(v))
			if len(a) != len(b) {
				t.Fatalf("%s: vertex %d labels %v -> %v", path, v, a, b)
			}
			for i := range a {
				if a[i] != b[i] {
					t.Fatalf("%s: vertex %d labels %v -> %v", path, v, a, b)
				}
			}
		}
		// Writing the reparsed graph must reproduce identical bytes.
		var buf2 bytes.Buffer
		if err := graph.WriteLabeled(&buf2, g2); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(buf.Bytes(), buf2.Bytes()) {
			t.Fatalf("%s: write is not a fixpoint", path)
		}
	}
}

func TestBadFixturesRejected(t *testing.T) {
	cases := []struct {
		file string
		want string
	}{
		{"bad_header.lg", "malformed header"},
		{"bad_dup_edge.lg", "duplicate edge"},
		{"bad_label_range.lg", "label"},
		{"bad_vertex_range.lg", "out of range"},
	}
	for _, c := range cases {
		f, err := os.Open(filepath.Join("testdata", c.file))
		if err != nil {
			t.Fatal(err)
		}
		_, err = graph.LoadLabeled(f)
		f.Close()
		if err == nil {
			t.Errorf("%s: accepted, want error containing %q", c.file, c.want)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not mention %q", c.file, err, c.want)
		}
	}
}

func TestLabeledValidationEdgeCases(t *testing.T) {
	ok := []string{
		"t\nv 0 0\nv 1 0\ne 0 1\n",            // bare section marker
		"v 0 0\nv 1 0\ne 0 1\n",               // headerless
		"t 2 1\nv 0 0\nv 1 0\ne 0 1\ne 1 1\n", // self-loop tolerated (dropped by the builder)
	}
	for _, in := range ok {
		if _, err := graph.LoadLabeled(strings.NewReader(in)); err != nil {
			t.Errorf("input %q rejected: %v", in, err)
		}
	}
	bad := []string{
		"t 2\nv 0 0\n",                        // header with one count
		"t -2 1\nv 0 0\n",                     // negative vertex count
		"t 2 x\nv 0 0\n",                      // non-integer edge count
		"t 2 1\nv 0 0\nv 1 0\ne 0 1\ne 0 1\n", // duplicate, same orientation
		"t 2 1\nv 0 0\nv 1 0\ne 0 1\ne 1 0\n", // duplicate, flipped
		"t 2 1\nv 0 0\nv 1 0\ne 0 2\n",        // edge endpoint beyond header
		"v 0 99999999\n",                      // label beyond maxLabelValue
	}
	for _, in := range bad {
		if _, err := graph.LoadLabeled(strings.NewReader(in)); err == nil {
			t.Errorf("input %q accepted", in)
		}
	}
}

// TestParsingAQueryAllocatesLittle: every /query decode — and each of the
// four parses a routed request gets — goes through LoadLabeledMax, so the
// scanner must not reserve its 1 MiB line limit up front. The line limit
// itself is unchanged: a line just under it parses, one over it is an error.
func TestParsingAQueryAllocatesLittle(t *testing.T) {
	query, err := os.ReadFile(filepath.Join("..", "..", "testdata", "fig1_query.lg"))
	if err != nil {
		t.Fatal(err)
	}
	edges := "0 1\n0 2\n1 2\n"
	parse := func() {
		if _, err := graph.LoadLabeledMax(bytes.NewReader(query), 64); err != nil {
			t.Fatal(err)
		}
		if _, err := graph.LoadEdgeList(strings.NewReader(edges)); err != nil {
			t.Fatal(err)
		}
	}
	const runs = 20
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	allocs := testing.AllocsPerRun(runs, parse)
	runtime.ReadMemStats(&after)
	// AllocsPerRun calls parse once more to warm up.
	if perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1); perRun >= 64<<10 {
		t.Fatalf("parsing the Fig-1 query and a 3-edge list allocates %d bytes, want < 64 KiB", perRun)
	}
	t.Logf("%v allocations per parse pair", allocs)

	long := "v 0 0\nv 1 0\ne 0 1\n#" + strings.Repeat("x", 1<<20-8) + "\n"
	if _, err := graph.LoadLabeled(strings.NewReader(long)); err != nil {
		t.Fatalf("a %d-byte line: %v", 1<<20-6, err)
	}
	if _, err := graph.LoadLabeled(strings.NewReader(long + strings.Repeat("x", 1<<20+1))); err == nil {
		t.Fatal("a line over 1 MiB was accepted")
	}
}

// TestRepeatedEdgeReportsTheFirstRepeat: the loader finds a repeated edge
// on the sorted adjacency rows, after the last line, and only then works
// out its lines. The error must still be the one a check of each line as
// it is read gives: the earliest line that repeats an edge, in either
// orientation, with the line that first gave it — ahead of a fault on a
// later line, behind one on an earlier line, and for a self loop too.
func TestRepeatedEdgeReportsTheFirstRepeat(t *testing.T) {
	flipped, err := os.ReadFile(filepath.Join("testdata", "bad_dup_edge.lg"))
	if err != nil {
		t.Fatal(err)
	}
	same := bytes.Replace(flipped, []byte("e 1 0"), []byte("e 0 1"), 1)
	long := "#" + strings.Repeat("x", 1<<20) + "\n"
	cases := []struct{ in, want string }{
		{string(flipped), "graph: line 7: duplicate edge (1,0) (first at line 5)"},
		{string(same), "graph: line 7: duplicate edge (0,1) (first at line 5)"},
		// Line 6 repeats line 5 and line 7 repeats line 4: line 6 is first.
		{"v 0 0\nv 1 0\nv 2 0\ne 0 1\ne 1 2\ne 2 1\ne 1 0\n", "graph: line 6: duplicate edge (2,1) (first at line 5)"},
		{"e 0 1\ne 0 1\ne 0 1\n", "graph: line 2: duplicate edge (0,1) (first at line 1)"},
		{"e 0 1\ne 1 2\ne 1 0\nv 0 x\n", "graph: line 3: duplicate edge (1,0) (first at line 1)"},
		{"e 0 1\ne 1 2\ne 1 0\n" + long, "graph: line 3: duplicate edge (1,0) (first at line 1)"},
		{"e 0 1\nv 0 x\ne 1 0\n", `graph: line 2: strconv.ParseUint: parsing "x": invalid syntax`},
		// Lines between the edges: a vertex, a comment, a self loop.
		{"e 0 1\nv 0 0\n# c\ne 1 2\ne 2 1\n", "graph: line 5: duplicate edge (2,1) (first at line 4)"},
		{"e 0 1\ne 5 5\ne 1 0\n", "graph: line 3: duplicate edge (1,0) (first at line 1)"},
		{"e 3 3\nv 0 0\ne 3 3\n", "graph: line 3: duplicate edge (3,3) (first at line 1)"},
		{"e 3 3\ne 3 3\n", "graph: line 2: duplicate edge (3,3) (first at line 1)"},
		{"e 3 3\ne 4 4\n", "graph: empty graph"},
	}
	for _, c := range cases {
		_, err := graph.LoadLabeled(strings.NewReader(c.in))
		if err == nil || err.Error() != c.want {
			t.Errorf("%.40q: error %v, want %q", c.in, err, c.want)
		}
	}
}

// TestLoadAllocatesInProportion: loading a labeled graph allocates at most
// three times the bytes the graph keeps (about 2.3 times here). Each
// line's fields are read in place, duplicate edges are found on the sorted
// rows, and the edge list lives in chunks that are never copied; a loader
// with a string per line, a map entry per edge and an append-grown
// adjacency slice per vertex reads 17.6 times on this graph.
func TestLoadAllocatesInProportion(t *testing.T) {
	g := gen.WithZipfMultiLabels(gen.ErdosRenyi(2000, 40000, 3), 90, 3, 1.4, 4)
	var text bytes.Buffer
	if err := graph.WriteLabeled(&text, g); err != nil {
		t.Fatal(err)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	runtime.GC()
	var before, loaded, kept runtime.MemStats
	runtime.ReadMemStats(&before)
	back, err := graph.LoadLabeled(bytes.NewReader(text.Bytes()))
	runtime.ReadMemStats(&loaded)
	if err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	runtime.ReadMemStats(&kept)
	runtime.KeepAlive(back)
	allocated := loaded.TotalAlloc - before.TotalAlloc
	retained := kept.HeapAlloc - before.HeapAlloc
	t.Logf("%d text bytes: allocated %d, retained %d (%.2fx)", text.Len(), allocated, retained, float64(allocated)/float64(retained))
	if allocated > 3*retained {
		t.Fatalf("loading allocated %d bytes for a graph of %d, over 3x", allocated, retained)
	}
}

// huText is the hu_s substitute (the dense 90-label multi-labeled graph)
// as .lg text, made once.
var huText = sync.OnceValues(func() ([]byte, error) {
	g, err := datasets.Load("hu_s")
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	err = graph.WriteLabeled(&buf, g)
	return buf.Bytes(), err
})

// BenchmarkLoadLabeled loads hu_s from .lg text: 4 600 vertices, 700 000
// edges, one to three labels a vertex.
func BenchmarkLoadLabeled(b *testing.B) {
	text, err := huText()
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(len(text)))
	b.ReportAllocs()
	for range b.N {
		if _, err := graph.LoadLabeled(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}
