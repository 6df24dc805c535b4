package shard

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"ceci/internal/graph"
)

// Manifest describes a partitioned data graph on disk: manifest.json
// plus, per shard, a labeled-graph file and a vertex map file. Shards
// and the router both load it — shards to serve one partition, the
// router to learn the fleet size and halo radius.
type Manifest struct {
	Shards  int    `json:"shards"`
	Radius  int    `json:"radius"`
	Jaccard bool   `json:"jaccard"`
	Source  Source `json:"source"`
	Parts   []Part `json:"parts"`
}

// Source records the shape of the graph that was partitioned, so
// LoadPart can refuse a vertex map that points outside it.
type Source struct {
	Vertices int `json:"vertices"`
	Edges    int `json:"edges"`
}

// Part is one shard's file pointers and shape.
type Part struct {
	Graph    string `json:"graph"` // labeled-graph file, relative to the manifest dir
	Map      string `json:"map"`   // vertex map file, relative to the manifest dir
	Vertices int    `json:"vertices"`
	Edges    int    `json:"edges"`
	Owned    int    `json:"owned"`
}

// Save writes the partitions into dir (created if missing):
// manifest.json, shard-<i>.lg, shard-<i>.map. The map file has one
// "<globalID> <owned 0|1>" line per local vertex, in local-id order.
func Save(dir string, source *graph.Graph, parts []*Partition, jaccard bool) (*Manifest, error) {
	if len(parts) == 0 {
		return nil, fmt.Errorf("shard: no partitions to save")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	m := &Manifest{
		Shards:  len(parts),
		Radius:  parts[0].Radius,
		Jaccard: jaccard,
		Source:  Source{Vertices: source.NumVertices(), Edges: source.NumEdges()},
	}
	for _, p := range parts {
		gname := fmt.Sprintf("shard-%d.lg", p.ID)
		mname := fmt.Sprintf("shard-%d.map", p.ID)
		if err := writeGraphFile(filepath.Join(dir, gname), p.Graph); err != nil {
			return nil, err
		}
		if err := writeMapFile(filepath.Join(dir, mname), p); err != nil {
			return nil, err
		}
		m.Parts = append(m.Parts, Part{
			Graph:    gname,
			Map:      mname,
			Vertices: p.Graph.NumVertices(),
			Edges:    p.Graph.NumEdges(),
			Owned:    p.Owned(),
		})
	}
	mb, err := json.MarshalIndent(m, "", "  ")
	if err != nil {
		return nil, err
	}
	if err := os.WriteFile(filepath.Join(dir, "manifest.json"), append(mb, '\n'), 0o644); err != nil {
		return nil, err
	}
	return m, nil
}

// LoadManifest reads and validates dir/manifest.json: a positive shard
// count matching the part list, a non-negative radius, and part file
// names that stay inside dir.
func LoadManifest(dir string) (*Manifest, error) {
	b, err := os.ReadFile(filepath.Join(dir, "manifest.json"))
	if err != nil {
		return nil, err
	}
	m := &Manifest{}
	if err := json.Unmarshal(b, m); err != nil {
		return nil, fmt.Errorf("shard: manifest: %w", err)
	}
	if m.Shards < 1 {
		return nil, fmt.Errorf("shard: manifest field \"shards\" is %d, want at least 1", m.Shards)
	}
	if m.Shards != len(m.Parts) {
		return nil, fmt.Errorf("shard: manifest declares %d shards but lists %d parts", m.Shards, len(m.Parts))
	}
	if m.Radius < 0 {
		return nil, fmt.Errorf("shard: manifest field \"radius\" is %d, want at least 0", m.Radius)
	}
	for id, part := range m.Parts {
		if !filepath.IsLocal(part.Graph) {
			return nil, fmt.Errorf("shard %d: manifest field \"graph\" is %q, not a file inside the manifest directory", id, part.Graph)
		}
		if !filepath.IsLocal(part.Map) {
			return nil, fmt.Errorf("shard %d: manifest field \"map\" is %q, not a file inside the manifest directory", id, part.Map)
		}
	}
	return m, nil
}

// LoadPart reads shard id's subgraph and vertex map from a manifest
// directory and refuses files that are not the ones the manifest
// describes: the map's vertex and owned counts and the graph's vertex
// and edge counts must equal the part's declared ones, and every global
// id must exist in the source graph.
func LoadPart(dir string, id int) (*Partition, error) {
	m, err := LoadManifest(dir)
	if err != nil {
		return nil, err
	}
	if id < 0 || id >= len(m.Parts) {
		return nil, fmt.Errorf("shard: id %d out of range [0,%d)", id, len(m.Parts))
	}
	part := m.Parts[id]
	mismatch := func(field string, declared int, file string, found int) error {
		return fmt.Errorf("shard %d: manifest field %q is %d but %s has %d", id, field, declared, file, found)
	}
	globals, ownedLocals, err := readMapFile(filepath.Join(dir, part.Map))
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	if len(globals) != part.Vertices {
		return nil, mismatch("vertices", part.Vertices, part.Map, len(globals))
	}
	if len(ownedLocals) != part.Owned {
		return nil, mismatch("owned", part.Owned, part.Map, len(ownedLocals))
	}
	if last := globals[len(globals)-1]; int64(last) >= int64(m.Source.Vertices) {
		return nil, fmt.Errorf("shard %d: %s maps to global vertex %d but manifest field \"source.vertices\" is %d",
			id, part.Map, last, m.Source.Vertices)
	}
	gf, err := os.Open(filepath.Join(dir, part.Graph))
	if err != nil {
		return nil, err
	}
	defer gf.Close()
	// The map has a line per vertex, so bounding ids by it keeps what the
	// loader allocates proportional to the files, whatever they say.
	g, err := graph.LoadLabeledMax(bufio.NewReaderSize(gf, 1<<20), int64(len(globals))) // buffered as graph.LoadFile reads
	if err != nil {
		return nil, fmt.Errorf("shard %d: %w", id, err)
	}
	if g.NumVertices() != part.Vertices {
		return nil, mismatch("vertices", part.Vertices, part.Graph, g.NumVertices())
	}
	if g.NumEdges() != part.Edges {
		return nil, mismatch("edges", part.Edges, part.Graph, g.NumEdges())
	}
	return &Partition{
		ID:          id,
		Shards:      m.Shards,
		Radius:      m.Radius,
		Graph:       g,
		Globals:     globals,
		OwnedLocals: ownedLocals,
	}, nil
}

func writeGraphFile(path string, g *graph.Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteLabeled(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func writeMapFile(path string, p *Partition) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	owned := make(map[graph.VertexID]bool, len(p.OwnedLocals))
	for _, lv := range p.OwnedLocals {
		owned[lv] = true
	}
	for lv, gv := range p.Globals {
		o := 0
		if owned[graph.VertexID(lv)] {
			o = 1
		}
		fmt.Fprintf(w, "%d %d\n", gv, o)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readMapFile(path string) ([]graph.VertexID, []graph.VertexID, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, nil, err
	}
	defer f.Close()
	var globals, ownedLocals []graph.VertexID
	sc := bufio.NewScanner(f)
	line := 0
	for sc.Scan() {
		line++
		text := strings.TrimSpace(sc.Text())
		if text == "" || strings.HasPrefix(text, "#") {
			continue
		}
		fields := strings.Fields(text)
		if len(fields) != 2 {
			return nil, nil, fmt.Errorf("map line %d: want \"<global> <owned>\", got %q", line, text)
		}
		gv, err := strconv.ParseUint(fields[0], 10, 32)
		if err != nil {
			return nil, nil, fmt.Errorf("map line %d: %v", line, err)
		}
		if len(globals) > 0 && graph.VertexID(gv) <= globals[len(globals)-1] {
			return nil, nil, fmt.Errorf("map line %d: global ids must be strictly ascending", line)
		}
		lv := graph.VertexID(len(globals))
		globals = append(globals, graph.VertexID(gv))
		switch fields[1] {
		case "1":
			ownedLocals = append(ownedLocals, lv)
		case "0":
		default:
			return nil, nil, fmt.Errorf("map line %d: owned flag must be 0 or 1", line)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, nil, err
	}
	if len(ownedLocals) == 0 {
		return nil, nil, fmt.Errorf("map declares no owned vertices")
	}
	return globals, ownedLocals, nil
}
