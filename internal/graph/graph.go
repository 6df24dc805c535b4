// Package graph provides the labeled-graph substrate shared by every
// matcher in the repository: an immutable CSR (compressed sparse row)
// representation with sorted adjacency lists, a label index, a lazily
// built label-grouped adjacency (which also answers the
// neighborhood-label-count filter), and a mutable Builder.
//
// Vertices are dense uint32 identifiers in [0, NumVertices). Each vertex
// carries one or more labels (the paper's L assigns a label *set*; most
// datasets use exactly one). Edges are undirected for matching purposes:
// directed inputs are symmetrized at build time, matching the paper's
// treatment ("the data graph can be directed or undirected" — candidates
// are collected over the undirected neighborhood).
package graph

import (
	"fmt"
	"slices"
	"sort"
)

// VertexID identifies a vertex in a Graph. IDs are dense: every value in
// [0, NumVertices) is a valid vertex.
type VertexID = uint32

// Label is a vertex label drawn from a dense alphabet [0, NumLabels).
type Label = uint32

// NoLabel is returned by Label lookups on out-of-range vertices.
const NoLabel = ^Label(0)

// Graph is an immutable undirected labeled graph in CSR form.
// Adjacency lists are sorted ascending, enabling binary-search edge probes
// and linear-time sorted intersection.
type Graph struct {
	offsets   []int64    // len = n+1; neighbors of v are neighbors[offsets[v]:offsets[v+1]]
	neighbors []VertexID // concatenated sorted adjacency lists
	labels    []Label    // primary label per vertex (labels[v])
	// The label column: nil when every vertex has one label. Otherwise
	// v's labels are labelCol[labelOff[v]:labelOff[v+1]], the primary
	// first and then the extras ascending.
	labelOff []uint32
	labelCol []Label

	labelKeys  []Label      // the distinct labels present, ascending
	labelIndex [][]VertexID // labelIndex[i] = sorted vertices whose label set contains labelKeys[i]
	numLabels  int

	ladj labelAdj // lazily built label-grouped adjacency (NeighborsWithLabel, NLCCovers)
}

// NumVertices returns the number of vertices.
func (g *Graph) NumVertices() int { return len(g.offsets) - 1 }

// NumEdges returns the number of undirected edges.
func (g *Graph) NumEdges() int { return len(g.neighbors) / 2 }

// NumLabels returns the size of the label alphabet (max label + 1).
func (g *Graph) NumLabels() int { return g.numLabels }

// Degree returns the number of neighbors of v.
func (g *Graph) Degree(v VertexID) int {
	return int(g.offsets[v+1] - g.offsets[v])
}

// Neighbors returns the sorted adjacency list of v. The returned slice
// aliases the graph's internal storage and must not be modified.
func (g *Graph) Neighbors(v VertexID) []VertexID {
	return g.neighbors[g.offsets[v]:g.offsets[v+1]]
}

// Label returns the primary label of v.
func (g *Graph) Label(v VertexID) Label {
	if int(v) >= len(g.labels) {
		return NoLabel
	}
	return g.labels[v]
}

// Labels returns all labels of v (primary first, then extras ascending).
// The result aliases internal storage and must not be modified.
func (g *Graph) Labels(v VertexID) []Label {
	if g.labelOff == nil {
		return g.labels[v : v+1 : v+1]
	}
	lo, hi := g.labelOff[v], g.labelOff[v+1]
	return g.labelCol[lo:hi:hi]
}

// HasLabel reports whether l is among v's labels.
func (g *Graph) HasLabel(v VertexID, l Label) bool {
	if g.labelOff == nil {
		return g.labels[v] == l
	}
	for _, x := range g.labelCol[g.labelOff[v]:g.labelOff[v+1]] {
		if x == l {
			return true
		}
	}
	return false
}

// MultiLabeled reports whether some vertex carries more than one label.
func (g *Graph) MultiLabeled() bool { return g.labelOff != nil }

// labelColumn returns every vertex's labels laid out vertex by vertex:
// the label column, or the primary labels when each vertex has one.
// labelSpan(v) is where v's labels are in it.
func (g *Graph) labelColumn() []Label {
	if g.labelOff == nil {
		return g.labels
	}
	return g.labelCol
}

func (g *Graph) labelSpan(v VertexID) (lo, hi uint32) {
	if g.labelOff == nil {
		return v, v + 1
	}
	return g.labelOff[v], g.labelOff[v+1]
}

// labelRanks returns, for every entry of the label column, the index of
// its label in labelKeys.
func (g *Graph) labelRanks() []int32 {
	col := g.labelColumn()
	ranks := make([]int32, len(col))
	for i, l := range col {
		r, _ := slices.BinarySearch(g.labelKeys, l)
		ranks[i] = int32(r)
	}
	return ranks
}

// HasEdge reports whether (u, v) is an edge, via binary search on the
// shorter adjacency list.
func (g *Graph) HasEdge(u, v VertexID) bool {
	if g.Degree(u) > g.Degree(v) {
		u, v = v, u
	}
	adj := g.Neighbors(u)
	i := sort.Search(len(adj), func(i int) bool { return adj[i] >= v })
	return i < len(adj) && adj[i] == v
}

// VerticesWithLabel returns the sorted vertices whose label set contains l.
// The result aliases internal storage and must not be modified.
func (g *Graph) VerticesWithLabel(l Label) []VertexID {
	i, ok := slices.BinarySearch(g.labelKeys, l)
	if !ok {
		return nil
	}
	return g.labelIndex[i]
}

// indexLabels builds the label index from the label column. It is keyed
// by the labels present, not by label value: a label may be anything up
// to MaxLabelValue, and the index must cost what the vertices cost. The
// lists are counted per label, then filled vertex by vertex into one
// array, so each comes out ascending.
func (g *Graph) indexLabels() {
	keys := slices.Clone(g.labelColumn())
	slices.Sort(keys)
	g.labelKeys = slices.Clone(slices.Compact(keys)) // keys has a slot per label carried; keep one per label
	ranks := g.labelRanks()
	start := make([]int, len(g.labelKeys)+1)
	for _, r := range ranks {
		start[r+1]++
	}
	for i := range g.labelKeys {
		start[i+1] += start[i]
	}
	members := make([]VertexID, len(ranks))
	g.labelIndex = make([][]VertexID, len(g.labelKeys))
	for i := range g.labelIndex {
		g.labelIndex[i] = members[start[i]:start[i]:start[i+1]]
	}
	for v := 0; v < g.NumVertices(); v++ {
		lo, hi := g.labelSpan(VertexID(v))
		for _, r := range ranks[lo:hi] {
			g.labelIndex[r] = append(g.labelIndex[r], VertexID(v))
		}
	}
}

// LabelFrequency returns how many vertices carry label l.
func (g *Graph) LabelFrequency(l Label) int {
	return len(g.VerticesWithLabel(l))
}

// MaxDegree returns the largest vertex degree (0 for an empty graph).
func (g *Graph) MaxDegree() int {
	max := 0
	for v := 0; v < g.NumVertices(); v++ {
		if d := g.Degree(VertexID(v)); d > max {
			max = d
		}
	}
	return max
}

// Edges calls fn once per undirected edge (u < v). It stops early if fn
// returns false.
func (g *Graph) Edges(fn func(u, v VertexID) bool) {
	for u := 0; u < g.NumVertices(); u++ {
		for _, v := range g.Neighbors(VertexID(u)) {
			if VertexID(u) < v {
				if !fn(VertexID(u), v) {
					return
				}
			}
		}
	}
}

// Connected reports whether g is a single connected component.
func (g *Graph) Connected() bool {
	n := g.NumVertices()
	if n == 0 {
		return false
	}
	seen := make([]bool, n)
	stack := []VertexID{0}
	seen[0] = true
	count := 0
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		count++
		for _, w := range g.Neighbors(v) {
			if !seen[w] {
				seen[w] = true
				stack = append(stack, w)
			}
		}
	}
	return count == n
}

// String summarizes the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("graph{V=%d E=%d L=%d}", g.NumVertices(), g.NumEdges(), g.numLabels)
}

// BytesEstimate returns the approximate in-memory footprint of the CSR
// arrays in bytes (used to report Table 2 style sizes).
func (g *Graph) BytesEstimate() int64 {
	return int64(len(g.offsets))*8 + int64(len(g.neighbors))*4 + int64(len(g.labels))*4
}
