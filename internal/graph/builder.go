package graph

import (
	"errors"
	"fmt"
	"math"
	"slices"
)

// Builder accumulates vertices and edges and produces an immutable Graph.
// The zero value is ready to use. Builders are not safe for concurrent use.
//
// Edges and extra labels are kept as flat pair lists in the order they
// were added; Build lays each out as CSR rows by counting, so building
// costs time linear in what was added plus one sort per row.
type Builder struct {
	labels []Label // primary label per vertex
	extras pairs   // (vertex, label) per extra label
	edges  pairs   // (u, v) per edge, self loops left out
}

// pairs is an append-only list of uint32 pairs held in chunks that are
// never copied: each chunk is a quarter larger than the one before, up to
// maxChunk values, so the list allocates at most a quarter, or one chunk,
// more than it holds.
type pairs struct {
	chunks [][]uint32 // 2 values per pair
	n      int        // pairs held
}

const maxChunk = 1 << 17

func (p *pairs) add(a, b uint32) {
	last := len(p.chunks) - 1
	if last < 0 || len(p.chunks[last]) == cap(p.chunks[last]) {
		size := 16
		if last >= 0 {
			size = min(cap(p.chunks[last])*5/4, maxChunk)
		}
		p.chunks = append(p.chunks, make([]uint32, 0, size))
		last++
	}
	p.chunks[last] = append(p.chunks[last], a, b)
	p.n++
}

// NewBuilder returns a Builder pre-sized for n vertices, all labeled 0.
func NewBuilder(n int) *Builder {
	b := &Builder{}
	b.Grow(n)
	return b
}

// Grow ensures the builder has at least n vertices (new ones labeled 0).
func (b *Builder) Grow(n int) {
	if n > len(b.labels) {
		b.labels = append(b.labels, make([]Label, n-len(b.labels))...)
	}
}

// NumVertices returns the current vertex count.
func (b *Builder) NumVertices() int { return len(b.labels) }

// AddVertex appends a vertex with the given primary label and returns its ID.
func (b *Builder) AddVertex(l Label) VertexID {
	b.labels = append(b.labels, l)
	return VertexID(len(b.labels) - 1)
}

// SetLabel assigns the primary label of v, growing the builder if needed.
func (b *Builder) SetLabel(v VertexID, l Label) {
	b.Grow(int(v) + 1)
	b.labels[v] = l
}

// AddExtraLabel attaches an additional label to v (multi-labeled vertices,
// as in the paper's HU dataset where vertices carry one or more of 90
// labels). A label equal to v's primary label at the time is ignored, and
// a repeated extra label is kept once.
func (b *Builder) AddExtraLabel(v VertexID, l Label) {
	b.Grow(int(v) + 1)
	if b.labels[v] == l {
		return
	}
	b.extras.add(v, l)
}

// AddEdge records the undirected edge (u, v). Self loops are ignored
// (subgraph isomorphism never maps a query edge onto a loop). Parallel
// edges are deduplicated at Build time.
func (b *Builder) AddEdge(u, v VertexID) {
	if u == v {
		return
	}
	b.Grow(int(max(u, v)) + 1)
	b.edges.add(u, v)
}

// Build finalizes the graph: lays out and sorts adjacency lists, removes
// duplicate edges, builds the label index, and releases builder storage.
func (b *Builder) Build() (*Graph, error) { return b.build(nil) }

// build is Build, except that when an edge was added twice and repeated
// is not nil, it returns repeated() instead of dropping the copy.
func (b *Builder) build(repeated func() error) (*Graph, error) {
	n := len(b.labels)
	offsets, neighbors, dup := adjacency(n, &b.edges)
	if dup {
		if repeated != nil {
			return nil, repeated()
		}
		neighbors = dropRepeats(offsets, neighbors)
	}
	b.edges = pairs{}
	if n == 0 {
		return nil, errors.New("graph: empty graph")
	}
	if uint64(n+b.extras.n) > math.MaxUint32 {
		return nil, fmt.Errorf("graph: %d labels, more than the label column holds", n+b.extras.n)
	}
	g := &Graph{offsets: offsets, neighbors: neighbors, labels: b.labels}
	g.labelOff, g.labelCol = labelColumn(b.labels, &b.extras)
	b.extras = pairs{}
	g.indexLabels()
	g.numLabels = int(g.labelKeys[len(g.labelKeys)-1]) + 1
	return g, nil
}

// adjacency lays edges out as the CSR rows of n vertices, each sorted
// ascending, from degree counts. An edge added twice is kept twice; dup
// reports whether any was.
func adjacency(n int, edges *pairs) (offsets []int64, neighbors []VertexID, dup bool) {
	offsets = make([]int64, n+1)
	for _, c := range edges.chunks {
		for i := 0; i < len(c); i += 2 {
			offsets[c[i]]++
			offsets[c[i+1]]++
		}
	}
	// offsets[v] becomes the end of v's row; filling a row from its end
	// leaves offsets[v] at its start.
	for v := 1; v < n; v++ {
		offsets[v] += offsets[v-1]
	}
	if n > 0 {
		offsets[n] = offsets[n-1]
	}
	neighbors = make([]VertexID, offsets[n])
	for _, c := range edges.chunks {
		for i := 0; i < len(c); i += 2 {
			u, v := c[i], c[i+1]
			offsets[u]--
			neighbors[offsets[u]] = v
			offsets[v]--
			neighbors[offsets[v]] = u
		}
	}
	for v := 0; v < n; v++ {
		row := neighbors[offsets[v]:offsets[v+1]]
		slices.Sort(row)
		for i := 1; i < len(row) && !dup; i++ {
			dup = row[i] == row[i-1]
		}
	}
	return offsets, neighbors, dup
}

// dropRepeats removes repeated neighbors from the sorted rows in place,
// rewriting offsets, and returns the neighbors that remain.
func dropRepeats(offsets []int64, neighbors []VertexID) []VertexID {
	n := len(offsets) - 1
	w := int64(0)
	for v := 0; v < n; v++ {
		lo, hi := offsets[v], offsets[v+1]
		offsets[v] = w
		for i := lo; i < hi; i++ {
			if x := neighbors[i]; i == lo || x != neighbors[w-1] {
				neighbors[w] = x
				w++
			}
		}
	}
	offsets[n] = w
	return slices.Clone(neighbors[:w])
}

// labelColumn lays every vertex's labels out as one column, its primary
// label first and then its extras ascending, each once: v's labels are
// col[off[v]:off[v+1]]. Both are nil when no vertex has an extra label.
func labelColumn(labels []Label, extras *pairs) (off []uint32, col []Label) {
	if extras.n == 0 {
		return nil, nil
	}
	n := len(labels)
	off = make([]uint32, n+1)
	for _, c := range extras.chunks {
		for i := 0; i < len(c); i += 2 {
			off[c[i]]++
		}
	}
	// As in adjacency: off[v] is first the end of v's row, then, filled
	// from the end, its start.
	end := uint32(0)
	for v := range labels {
		end += 1 + off[v]
		off[v] = end
	}
	off[n] = end
	col = make([]Label, end)
	for _, c := range extras.chunks {
		for i := 0; i < len(c); i += 2 {
			off[c[i]]--
			col[off[c[i]]] = c[i+1]
		}
	}
	for v, l := range labels {
		off[v]--
		col[off[v]] = l
	}
	w := uint32(0)
	for v := range labels {
		lo, hi := off[v], off[v+1]
		off[v] = w
		col[w] = col[lo]
		w++
		rest := col[lo+1 : hi]
		slices.Sort(rest)
		for i, l := range rest {
			if i == 0 || l != col[w-1] {
				col[w] = l
				w++
			}
		}
	}
	off[n] = w
	return off, col[:w:w]
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
