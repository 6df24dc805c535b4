package main

import (
	"bytes"
	_ "embed"
	"encoding/json"
	"fmt"
	"os"

	"ceci"
)

// A class is one query graph with its pinned answer. The pools are fixed:
// -seed never changes them, so the pinned counts stay valid on any seed.
type class struct {
	Labels []uint32    `json:"labels"`
	Edges  [][2]uint32 `json:"edges"`
	// Count is ceci.Match(...).Count() on the seed code with
	// Options.Limit = pool.Cap (the full total when Cap is 0).
	Count int64 `json:"count"`
	// IndexBytes is Index.PhysicalBytes at generation time. Informational:
	// it sized the serve_churn cache budget.
	IndexBytes int64 `json:"index_bytes"`
}

// A pool is a list of classes over one data graph.
type pool struct {
	Graph   string  `json:"graph"`   // internal/datasets name
	Relabel int     `json:"relabel"` // labels injected into the dataset (0 = as generated)
	Cap     int64   `json:"cap"`     // Options.Limit the counts were pinned under (0 = none)
	Classes []class `json:"classes"`
}

//go:embed pools.json
var poolsJSON []byte

func loadPools() (map[string]*pool, error) {
	var p map[string]*pool
	if err := json.Unmarshal(poolsJSON, &p); err != nil {
		return nil, fmt.Errorf("pools.json: %w", err)
	}
	return p, nil
}

// graph builds the class's query graph with its vertices renumbered by
// perm (perm[old] = new); nil keeps the stored numbering.
func (c *class) graph(perm []int) (*ceci.Graph, error) {
	b := ceci.NewBuilder(len(c.Labels))
	at := func(v uint32) ceci.VertexID {
		if perm == nil {
			return v
		}
		return ceci.VertexID(perm[v])
	}
	for v, l := range c.Labels {
		b.SetLabel(at(uint32(v)), l)
	}
	for _, e := range c.Edges {
		b.AddEdge(at(e[0]), at(e[1]))
	}
	return b.Build()
}

// expected is the count a correct reply carries under limit (0 = none).
func (p *pool) expected(c *class, limit int64) int64 {
	if limit > 0 && c.Count > limit {
		return limit
	}
	return c.Count
}

func classOf(q *ceci.Graph) class {
	c := class{Labels: make([]uint32, q.NumVertices())}
	for v := range c.Labels {
		c.Labels[v] = q.Label(ceci.VertexID(v))
	}
	q.Edges(func(u, v ceci.VertexID) bool {
		c.Edges = append(c.Edges, [2]uint32{u, v})
		return true
	})
	return c
}

// poolSpec says how -gen-pools draws one pool. Classes are either
// DFS-grown from the data graph (paper §6.2; always trees or near-trees
// on these sparse graphs, so they exercise candidate lists but few
// intersections) or one of the paper's cyclic Figure 6 shapes under
// random labels (non-tree edges, so enumeration runs the set-intersection
// kernels). keep filters on deterministic properties only.
type poolSpec struct {
	name    string
	graph   string
	relabel int
	cap     int64
	n       int
	sizes   []int    // DFS-grown sizes, cycled
	shapes  []string // Figure 6 shapes, cycled (instead of sizes)
	// keep accepts a drawn class for the pool's next slot.
	keep func(slot int, q *ceci.Graph, count, indexBytes int64) bool
}

// countCap bounds the pinned counts on hu_s, whose totals are
// astronomically large; it is above every limit the workloads use.
const countCap = 4096

var poolSpecs = []poolSpec{
	// Every fourth hot class has at most 1000 embeddings (only size-4
	// classes do, about 1 in 40 of them): under limit 1000
	// those are the replies whose merged fleet count must equal the
	// single-node count exactly (above the limit each shard stops on its
	// own, so the merged count is only bounded).
	{name: "hot", graph: "yt_s", relabel: 16, cap: countCap, n: 24, sizes: []int{5, 6, 4, 4},
		keep: func(slot int, q *ceci.Graph, n, _ int64) bool {
			return anchorEcc(q) <= 2 && (slot%4 != 3 || n <= 1000)
		}},
	// Index sizes of DFS-grown classes on hu_s span 13 KB–10 MB and build
	// times 1–600 ms; the band keeps misses at 3–20 ms so that a run sees
	// thousands of requests and its hit ratio is steady.
	{name: "churn", graph: "hu_s", cap: countCap, n: 90, sizes: []int{4, 6, 8},
		keep: func(_ int, _ *ceci.Graph, _, ib int64) bool { return ib >= 50<<10 && ib <= 700<<10 }},
	// Squares and houses with 80k–600k embeddings on 8-label wg_s: about
	// 15 ms of enumeration over a 3 ms build.
	{name: "enum", graph: "wg_s", relabel: 8, n: 36, shapes: []string{"QG2", "QG4"},
		keep: func(_ int, _ *ceci.Graph, n, _ int64) bool { return n >= 80_000 && n <= 600_000 }},
	// Cliques with few embeddings on 16-label ok_s: about 3 ms of build
	// over 0.6 ms of enumeration.
	{name: "build_qg", graph: "ok_s", relabel: 16, n: 24, shapes: []string{"QG3", "QG5"},
		keep: func(_ int, _ *ceci.Graph, n, _ int64) bool { return n >= 10 && n <= 30_000 }},
	{name: "build_hu", graph: "hu_s", cap: 1024, n: 16, sizes: []int{8},
		keep: func(_ int, _ *ceci.Graph, _, ib int64) bool { return ib >= 50<<10 && ib <= 700<<10 }},
}

// genPools regenerates pools.json from the specs above. It is run by
// hand (-gen-pools FILE) when a pool's definition changes; the counts it
// pins are the seed code's answers with Workers: 1.
func genPools(path string) error {
	out := make(map[string]*pool)
	for i, spec := range poolSpecs {
		data, err := makeDataset(spec.graph, spec.relabel)
		if err != nil {
			return err
		}
		grow := newQueryGrower(int64(1000 + i))
		p := &pool{Graph: spec.graph, Relabel: spec.relabel, Cap: spec.cap}
		seen := make(map[string]bool)
		for tries := 0; len(p.Classes) < spec.n; tries++ {
			if tries > 200*spec.n {
				return fmt.Errorf("pool %s: only %d of %d classes after %d draws", spec.name, len(p.Classes), spec.n, tries)
			}
			var q *ceci.Graph
			if len(spec.shapes) > 0 {
				shape := shapeQuery(spec.shapes[len(p.Classes)%len(spec.shapes)])
				c := classOf(shape)
				for v := range c.Labels {
					c.Labels[v] = uint32(grow.intn(spec.relabel))
				}
				q, err = c.graph(nil)
			} else {
				q, err = grow.dfs(data, spec.sizes[len(p.Classes)%len(spec.sizes)])
			}
			if err != nil {
				continue
			}
			c := classOf(q)
			key := fmt.Sprint(c.Labels, c.Edges)
			if seen[key] {
				continue
			}
			m, err := ceci.Match(data, q, &ceci.Options{Workers: 1, Limit: spec.cap})
			if err != nil {
				return err
			}
			c.Count, c.IndexBytes = m.Count(), m.IndexInfo().PhysicalBytes
			if c.Count == 0 || !spec.keep(len(p.Classes), q, c.Count, c.IndexBytes) {
				continue
			}
			seen[key] = true
			p.Classes = append(p.Classes, c)
		}
		out[spec.name] = p
		fmt.Fprintf(os.Stderr, "pool %-9s %d classes on %s\n", spec.name, len(p.Classes), spec.graph)
	}
	// One class per line keeps the file diffable.
	var buf bytes.Buffer
	buf.WriteString("{\n")
	for i, spec := range poolSpecs {
		p := out[spec.name]
		fmt.Fprintf(&buf, " %q: {\"graph\": %q, \"relabel\": %d, \"cap\": %d, \"classes\": [\n", spec.name, p.Graph, p.Relabel, p.Cap)
		for j, c := range p.Classes {
			b, err := json.Marshal(c)
			if err != nil {
				return err
			}
			fmt.Fprintf(&buf, "  %s%s\n", b, comma(j < len(p.Classes)-1))
		}
		fmt.Fprintf(&buf, " ]}%s\n", comma(i < len(poolSpecs)-1))
	}
	buf.WriteString("}\n")
	return os.WriteFile(path, buf.Bytes(), 0o644)
}

func comma(more bool) string {
	if more {
		return ","
	}
	return ""
}
