package shard

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
)

// testGraph is a labeled random graph shared by the partition tests.
func testGraph() *graph.Graph {
	return gen.WithRandomLabels(gen.ErdosRenyi(120, 500, 5), 3, 7)
}

// TestSplitOwnershipPartition: across all shards, the owned sets must
// partition the vertex set — every global vertex owned exactly once.
func TestSplitOwnershipPartition(t *testing.T) {
	data := testGraph()
	for _, shards := range []int{1, 2, 3, 5} {
		parts, err := Split(data, PartitionOptions{Shards: shards, Radius: 2})
		if err != nil {
			t.Fatalf("shards=%d: %v", shards, err)
		}
		if len(parts) != shards {
			t.Fatalf("shards=%d: got %d parts", shards, len(parts))
		}
		owner := make(map[graph.VertexID]int)
		for _, p := range parts {
			if p.Owned() == 0 {
				t.Fatalf("shards=%d: shard %d owns nothing", shards, p.ID)
			}
			for _, lv := range p.OwnedLocals {
				gv := p.Globals[lv]
				if prev, dup := owner[gv]; dup {
					t.Fatalf("shards=%d: vertex %d owned by shards %d and %d", shards, gv, prev, p.ID)
				}
				owner[gv] = p.ID
			}
		}
		if len(owner) != data.NumVertices() {
			t.Fatalf("shards=%d: %d vertices owned, want %d", shards, len(owner), data.NumVertices())
		}
	}
}

// TestSplitHaloAndLocalIDInvariants: globals ascend strictly (the
// symmetry-breaking invariant), the halo is exactly the vertices within
// Radius of the owned set, and the induced subgraph preserves labels
// and every internal edge.
func TestSplitHaloAndLocalIDInvariants(t *testing.T) {
	data := testGraph()
	const radius = 2
	parts, err := Split(data, PartitionOptions{Shards: 3, Radius: radius})
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range parts {
		// Strictly ascending globals.
		for i := 1; i < len(p.Globals); i++ {
			if p.Globals[i-1] >= p.Globals[i] {
				t.Fatalf("shard %d: globals not strictly ascending at %d", p.ID, i)
			}
		}
		// Halo = BFS ball of depth radius around the owned set.
		want := haloBall(data, p, radius)
		if len(want) != len(p.Globals) {
			t.Fatalf("shard %d: subgraph has %d vertices, BFS ball has %d", p.ID, len(p.Globals), len(want))
		}
		for _, gv := range p.Globals {
			if !want[gv] {
				t.Fatalf("shard %d: vertex %d in subgraph but outside the radius-%d ball", p.ID, gv, radius)
			}
		}
		// Labels survive and internal edges are preserved exactly.
		inShard := make(map[graph.VertexID]graph.VertexID, len(p.Globals)) // global -> local
		for lv, gv := range p.Globals {
			inShard[gv] = graph.VertexID(lv)
		}
		for lv, gv := range p.Globals {
			gl := data.Labels(gv)
			sl := p.Graph.Labels(graph.VertexID(lv))
			if len(gl) != len(sl) {
				t.Fatalf("shard %d: vertex %d label count %d, want %d", p.ID, gv, len(sl), len(gl))
			}
			for i := range gl {
				if gl[i] != sl[i] {
					t.Fatalf("shard %d: vertex %d labels diverge", p.ID, gv)
				}
			}
			wantDeg := 0
			for _, w := range data.Neighbors(gv) {
				if lw, ok := inShard[w]; ok {
					wantDeg++
					if !hasNeighbor(p.Graph, graph.VertexID(lv), lw) {
						t.Fatalf("shard %d: edge %d-%d missing in subgraph", p.ID, gv, w)
					}
				}
			}
			if got := len(p.Graph.Neighbors(graph.VertexID(lv))); got != wantDeg {
				t.Fatalf("shard %d: vertex %d has %d shard edges, want %d", p.ID, gv, got, wantDeg)
			}
		}
	}
}

// haloBall marks every vertex within radius of p's owned set.
func haloBall(data *graph.Graph, p *Partition, radius int) map[graph.VertexID]bool {
	dist := make(map[graph.VertexID]int)
	var queue []graph.VertexID
	for _, lv := range p.OwnedLocals {
		gv := p.Globals[lv]
		dist[gv] = 0
		queue = append(queue, gv)
	}
	for len(queue) > 0 {
		v := queue[0]
		queue = queue[1:]
		if dist[v] == radius {
			continue
		}
		for _, w := range data.Neighbors(v) {
			if _, seen := dist[w]; !seen {
				dist[w] = dist[v] + 1
				queue = append(queue, w)
			}
		}
	}
	ball := make(map[graph.VertexID]bool, len(dist))
	for v := range dist {
		ball[v] = true
	}
	return ball
}

func hasNeighbor(g *graph.Graph, v, w graph.VertexID) bool {
	for _, u := range g.Neighbors(v) {
		if u == w {
			return true
		}
	}
	return false
}

// TestSplitValidation: degenerate shapes are rejected up front.
func TestSplitValidation(t *testing.T) {
	data := testGraph()
	if _, err := Split(data, PartitionOptions{Shards: 0}); err == nil {
		t.Error("0 shards should error")
	}
	if _, err := Split(data, PartitionOptions{Shards: data.NumVertices() + 1}); err == nil {
		t.Error("more shards than vertices should error")
	}
}

// TestManifestRoundTrip: Save then LoadPart must reproduce every
// partition byte-for-byte — graph shape, globals, owned flags.
func TestManifestRoundTrip(t *testing.T) {
	data := testGraph()
	parts, err := Split(data, PartitionOptions{Shards: 3, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	m, err := Save(dir, data, parts, false)
	if err != nil {
		t.Fatal(err)
	}
	if m.Shards != 3 || m.Radius != 2 || m.Source.Vertices != data.NumVertices() {
		t.Fatalf("manifest header %+v", m)
	}
	if _, err := LoadManifest(dir); err != nil {
		t.Fatal(err)
	}
	for _, want := range parts {
		got, err := LoadPart(dir, want.ID)
		if err != nil {
			t.Fatalf("shard %d: %v", want.ID, err)
		}
		if got.Shards != want.Shards || got.Radius != want.Radius {
			t.Fatalf("shard %d: header (%d,%d), want (%d,%d)", want.ID, got.Shards, got.Radius, want.Shards, want.Radius)
		}
		if got.Graph.NumVertices() != want.Graph.NumVertices() || got.Graph.NumEdges() != want.Graph.NumEdges() {
			t.Fatalf("shard %d: graph shape differs after round trip", want.ID)
		}
		if len(got.Globals) != len(want.Globals) || len(got.OwnedLocals) != len(want.OwnedLocals) {
			t.Fatalf("shard %d: map sizes differ", want.ID)
		}
		for i := range want.Globals {
			if got.Globals[i] != want.Globals[i] {
				t.Fatalf("shard %d: globals[%d] = %d, want %d", want.ID, i, got.Globals[i], want.Globals[i])
			}
		}
		for i := range want.OwnedLocals {
			if got.OwnedLocals[i] != want.OwnedLocals[i] {
				t.Fatalf("shard %d: ownedLocals[%d] differs", want.ID, i)
			}
		}
	}
	// Out-of-range part ids are rejected.
	if _, err := LoadPart(dir, 3); err == nil {
		t.Error("part 3 of a 3-shard manifest should error")
	}
}

// TestLoadPartRejectsUntrustedManifest: the manifest is input — file
// names must stay inside its directory, the header must be sane, and the
// counts it declares must be the counts of the files it points at. Every
// refusal names the shard and the offending field.
func TestLoadPartRejectsUntrustedManifest(t *testing.T) {
	data := testGraph()
	parts, err := Split(data, PartitionOptions{Shards: 3, Radius: 2})
	if err != nil {
		t.Fatal(err)
	}
	const id = 1
	cases := []struct {
		name   string
		mutate func(m *Manifest)
		want   []string // substrings of the error
	}{
		{"graph name escapes", func(m *Manifest) { m.Parts[id].Graph = "../../x" }, []string{"shard 1", `"graph"`}},
		{"map name absolute", func(m *Manifest) { m.Parts[id].Map = "/etc/passwd" }, []string{"shard 1", `"map"`}},
		{"graph name empty", func(m *Manifest) { m.Parts[id].Graph = "" }, []string{"shard 1", `"graph"`}},
		{"vertices", func(m *Manifest) { m.Parts[id].Vertices++ }, []string{"shard 1", `"vertices"`}},
		{"edges", func(m *Manifest) { m.Parts[id].Edges-- }, []string{"shard 1", `"edges"`}},
		{"owned", func(m *Manifest) { m.Parts[id].Owned++ }, []string{"shard 1", `"owned"`}},
		{"source smaller than the ids mapped", func(m *Manifest) { m.Source.Vertices = 10 }, []string{"shard 1", `"source.vertices"`}},
		{"negative radius", func(m *Manifest) { m.Radius = -1 }, []string{`"radius"`}},
		{"zero shards", func(m *Manifest) { m.Shards, m.Parts = 0, nil }, []string{`"shards"`}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			m, err := Save(dir, data, parts, false)
			if err != nil {
				t.Fatal(err)
			}
			tc.mutate(m)
			mb, err := json.Marshal(m)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(filepath.Join(dir, "manifest.json"), mb, 0o644); err != nil {
				t.Fatal(err)
			}
			p, err := LoadPart(dir, id)
			if err == nil {
				t.Fatalf("loaded %d vertices from a manifest that should be refused", p.Graph.NumVertices())
			}
			for _, want := range tc.want {
				if !strings.Contains(err.Error(), want) {
					t.Errorf("error %q does not name %s", err, want)
				}
			}
		})
	}
}
