package graph

import (
	"errors"
	"fmt"
	"sort"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero value is ready to use. Builders are not safe for concurrent use.
type Builder struct {
	labels   []Label // primary label per vertex
	extra    map[VertexID][]Label
	adj      [][]VertexID // temporary adjacency lists
	numEdges int
	directed bool // if true, AddEdge also records the reverse direction once
}

// NewBuilder returns a Builder pre-sized for n vertices, all labeled 0.
func NewBuilder(n int) *Builder {
	b := &Builder{}
	b.Grow(n)
	return b
}

// Grow ensures the builder has at least n vertices (new ones labeled 0).
func (b *Builder) Grow(n int) {
	for len(b.labels) < n {
		b.labels = append(b.labels, 0)
		b.adj = append(b.adj, nil)
	}
}

// NumVertices returns the current vertex count.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddVertex appends a vertex with the given primary label and returns its ID.
func (b *Builder) AddVertex(l Label) VertexID {
	b.labels = append(b.labels, l)
	b.adj = append(b.adj, nil)
	return VertexID(len(b.labels) - 1)
}

// SetLabel assigns the primary label of v, growing the builder if needed.
func (b *Builder) SetLabel(v VertexID, l Label) {
	b.Grow(int(v) + 1)
	b.labels[v] = l
}

// AddExtraLabel attaches an additional label to v (multi-labeled vertices,
// as in the paper's HU dataset where vertices carry one or more of 90
// labels).
func (b *Builder) AddExtraLabel(v VertexID, l Label) {
	b.Grow(int(v) + 1)
	if b.labels[v] == l {
		return
	}
	if b.extra == nil {
		b.extra = make(map[VertexID][]Label)
	}
	for _, e := range b.extra[v] {
		if e == l {
			return
		}
	}
	b.extra[v] = append(b.extra[v], l)
}

// AddEdge records the undirected edge (u, v). Self loops are ignored
// (subgraph isomorphism never maps a query edge onto a loop). Parallel
// edges are deduplicated at Build time.
func (b *Builder) AddEdge(u, v VertexID) {
	if u == v {
		return
	}
	max := int(u)
	if int(v) > max {
		max = int(v)
	}
	b.Grow(max + 1)
	b.adj[u] = append(b.adj[u], v)
	b.adj[v] = append(b.adj[v], u)
	b.numEdges++
}

// Build finalizes the graph: sorts adjacency lists, removes duplicate
// edges, builds the label index, and releases builder storage.
func (b *Builder) Build() (*Graph, error) {
	n := len(b.labels)
	g := &Graph{
		offsets: make([]int64, n+1),
		labels:  b.labels,
	}

	// Sort and deduplicate each adjacency list.
	total := 0
	for v := 0; v < n; v++ {
		lst := b.adj[v]
		sort.Slice(lst, func(i, j int) bool { return lst[i] < lst[j] })
		w := 0
		for i, x := range lst {
			if i == 0 || x != lst[i-1] {
				lst[w] = x
				w++
			}
		}
		b.adj[v] = lst[:w]
		total += w
	}

	g.neighbors = make([]VertexID, total)
	pos := int64(0)
	for v := 0; v < n; v++ {
		g.offsets[v] = pos
		copy(g.neighbors[pos:], b.adj[v])
		pos += int64(len(b.adj[v]))
		b.adj[v] = nil
	}
	g.offsets[n] = pos

	if n == 0 {
		return nil, errors.New("graph: empty graph")
	}

	// Multi-labels: sort extras.
	if len(b.extra) > 0 {
		g.extra = make(map[VertexID][]Label, len(b.extra))
		for v, extras := range b.extra {
			sort.Slice(extras, func(i, j int) bool { return extras[i] < extras[j] })
			g.extra[v] = extras
		}
	}
	g.indexLabels()
	g.numLabels = int(g.labelKeys[len(g.labelKeys)-1]) + 1
	return g, nil
}

// MustBuild is Build but panics on error; convenient in tests and examples.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(fmt.Sprintf("graph: MustBuild: %v", err))
	}
	return g
}

// FromEdgeList builds an unlabeled graph (all labels 0) from an edge list.
func FromEdgeList(edges [][2]VertexID) (*Graph, error) {
	b := &Builder{}
	for _, e := range edges {
		b.AddEdge(e[0], e[1])
	}
	return b.Build()
}
