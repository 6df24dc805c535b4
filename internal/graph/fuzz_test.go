package graph_test

import (
	"bufio"
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"testing"

	"ceci/internal/graph"
)

// FuzzLoadLabeled: the .lg text is hostile bytes — a query body, a shard's
// graph file. The loader returns an error, or a graph whose label index
// holds every vertex under each of its labels and nothing else, whose
// alphabet ends at its largest label, whose label runs and NLC test agree
// with a scan and a signature, and which survives write → load;
// either way it allocates in proportion to the bytes it was given and the
// vertex bound it was called with, whatever ids and label values they
// spell.
func FuzzLoadLabeled(f *testing.F) {
	// The package's own fixtures; the hostile variants (a lone huge label,
	// ids at the bound, labels past the range) are in
	// testdata/fuzz/FuzzLoadLabeled.
	files, err := filepath.Glob(filepath.Join("testdata", "*.lg"))
	if err != nil || len(files) == 0 {
		f.Fatalf("no fixtures: %v", err)
	}
	for _, name := range files {
		text, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(text)
	}
	const maxVertices = 256
	f.Fuzz(func(t *testing.T, text []byte) {
		// Every per-vertex structure is bounded by maxVertices; the rest
		// scales with the input.
		budget := uint64(128<<10 + 512*len(text))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := graph.LoadLabeledMax(bytes.NewReader(text), maxVertices)
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("loading %d bytes allocated %d, budget %d", len(text), got, budget)
		}
		if err != nil {
			return
		}
		n := g.NumVertices()
		if n == 0 || n > maxVertices {
			t.Fatalf("accepted a graph of %d vertices", n)
		}
		var largest graph.Label
		carried := map[graph.Label][]graph.VertexID{}
		for v := 0; v < n; v++ {
			for _, l := range g.Labels(graph.VertexID(v)) {
				carried[l] = append(carried[l], graph.VertexID(v))
				largest = max(largest, l)
			}
		}
		if largest > graph.MaxLabelValue || g.NumLabels() != int(largest)+1 {
			t.Fatalf("largest label %d, NumLabels %d", largest, g.NumLabels())
		}
		for l, want := range carried {
			if got := g.VerticesWithLabel(l); !slices.Equal(got, want) {
				t.Fatalf("VerticesWithLabel(%d) = %v, want %v", l, got, want)
			}
			// The neighbours on either side are absent unless carried too.
			for _, absent := range []graph.Label{l - 1, l + 1} {
				if _, ok := carried[absent]; !ok && g.VerticesWithLabel(absent) != nil {
					t.Fatalf("VerticesWithLabel(%d) = %v for a label nothing carries", absent, g.VerticesWithLabel(absent))
				}
			}
		}
		// The label-grouped adjacency finds a run by its vertex's run head,
		// a bit and a popcount below label 32 and a search from 32 up,
		// whatever values the labels take: each run is the filtered scan,
		// and the batched lookup of every vertex's run is the same run. The
		// compiled NLC test agrees with the signature's for every vertex's
		// requirement, its own included.
		all := make([]graph.VertexID, n)
		for v := range all {
			all[v] = graph.VertexID(v)
		}
		var sigs []graph.NLCSignature
		for v := 0; v < n; v++ {
			sigs = append(sigs, graph.NLCOf(g, graph.VertexID(v)))
		}
		var runs [][]graph.VertexID
		for l := range carried {
			runs = g.RunsWithLabel(all, l, runs)
			for _, id := range all {
				var want []graph.VertexID
				for _, w := range g.Neighbors(id) {
					if g.HasLabel(w, l) {
						want = append(want, w)
					}
				}
				if got := g.NeighborsWithLabel(id, l); !slices.Equal(got, want) {
					t.Fatalf("NeighborsWithLabel(%d, %d) = %v, want %v", id, l, got, want)
				}
				if !slices.Equal(runs[id], want) {
					t.Fatalf("RunsWithLabel: vertex %d, label %d = %v, want %v", id, l, runs[id], want)
				}
			}
		}
		for v, sig := range sigs {
			id := graph.VertexID(v)
			for _, req := range sigs {
				if got, want := g.NLCCovers(id, graph.CompileNLC(req)), sig.Covers(req); got != want {
					t.Fatalf("NLCCovers(%d, %+v) = %v, signature %+v says %v", v, req, got, sig, want)
				}
			}
			if !g.NLCCovers(id, graph.CompileNLC(sig)) {
				t.Fatalf("vertex %d does not cover its own signature %+v", v, sig)
			}
		}
		var buf bytes.Buffer
		if err := graph.WriteLabeled(&buf, g); err != nil {
			t.Fatal(err)
		}
		back, err := graph.LoadLabeledMax(&buf, maxVertices)
		if err != nil {
			t.Fatalf("the writer's own output is refused: %v", err)
		}
		if back.NumVertices() != n || back.NumEdges() != g.NumEdges() || back.NumLabels() != g.NumLabels() {
			t.Fatalf("round trip: %v became %v", g, back)
		}
		for v := 0; v < n; v++ {
			id := graph.VertexID(v)
			if !slices.Equal(back.Labels(id), g.Labels(id)) || !slices.Equal(back.Neighbors(id), g.Neighbors(id)) {
				t.Fatalf("round trip: vertex %d differs", v)
			}
		}
	})
}

// FuzzLoadEdgeList: the edge-list loader reads each line's fields in
// place. It must accept exactly the text a plain reading accepts — a
// string per line, strings.Fields, strconv.ParseUint and a Builder — and
// refuse the rest with the same error, build the same graph, and allocate
// in proportion to the bytes it was given and the largest vertex id they
// spell. The loader has no vertex bound, so text naming an id from maxID
// up is left out: the builder allocates up to the largest id.
func FuzzLoadEdgeList(f *testing.F) {
	for _, s := range []string{
		"0 1\n1 2\n2 0\n",
		"# comment\n% comment\n\n  3\t4  extra\r\n4 3\n5 5\n",
		"0 1\n1\n",
		"0 x\n",
		"01 +2\n",
		"0\u00a01\n1\u20282\n",
		"4294967295 0\n",
		"7 7\n",
	} {
		f.Add([]byte(s))
	}
	const maxID = 1 << 12
	f.Fuzz(func(t *testing.T, text []byte) {
		want, wantErr, largest := plainEdgeList(text, maxID)
		if largest >= maxID {
			return
		}
		budget := uint64(128<<10 + 512*len(text) + 128*int(largest))
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		g, err := graph.LoadEdgeList(bytes.NewReader(text))
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > budget {
			t.Fatalf("loading %d bytes allocated %d, budget %d", len(text), got, budget)
		}
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("error %v, a plain reading gives %v", err, wantErr)
		}
		if err != nil {
			return
		}
		if g.NumVertices() != want.NumVertices() || g.NumEdges() != want.NumEdges() || g.NumLabels() != 1 {
			t.Fatalf("loaded %v, a plain reading builds %v", g, want)
		}
		for v := 0; v < g.NumVertices(); v++ {
			if id := graph.VertexID(v); !slices.Equal(g.Neighbors(id), want.Neighbors(id)) {
				t.Fatalf("vertex %d: neighbors %v, want %v", v, g.Neighbors(id), want.Neighbors(id))
			}
		}
	})
}

// plainEdgeList reads an edge list a line at a time as strings. It stops
// at the first vertex id from maxID up and returns the largest id read.
func plainEdgeList(text []byte, maxID uint64) (*graph.Graph, error, uint64) {
	b := &graph.Builder{}
	sc := bufio.NewScanner(bytes.NewReader(text))
	sc.Buffer(nil, 1<<20)
	lineNo := 0
	largest := uint64(0)
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") || strings.HasPrefix(line, "%") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: edge list line %d: want 2 fields, got %q", lineNo, line), largest
		}
		u, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", lineNo, err), largest
		}
		v, err := strconv.ParseUint(fields[1], 10, 32)
		if err != nil {
			return nil, fmt.Errorf("graph: edge list line %d: %v", lineNo, err), largest
		}
		if largest = max(largest, u, v); largest >= maxID {
			return nil, nil, largest
		}
		b.AddEdge(graph.VertexID(u), graph.VertexID(v))
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err), largest
	}
	g, err := b.Build()
	return g, err, largest
}
