package order

import (
	"slices"

	"ceci/internal/graph"
)

// Verdict names the first filter stage of Section 3.2 that drops a data
// vertex as a candidate of a query vertex, in the index builder's stage
// order — labels, then degree, then neighborhood label counts — so the
// builder's per-stage funnel is a histogram of verdicts. The zero value
// is DropLabel: the entries of vertices outside the primary label's index
// are never written, and they do lack a label.
type Verdict uint8

const (
	DropLabel  Verdict = iota // lacks one of the query vertex's labels
	DropDegree                // fewer neighbors than the query vertex
	DropNLC                   // neighborhood label counts do not cover the query vertex's
	Pass
)

// Filter holds the LDF+NLC verdict of every (query vertex, data vertex)
// pair of one query against one data graph. The verdict depends on the
// pair alone, so it is evaluated once: Preprocess computes the tables for
// root selection, and candidate counts, candidate iteration and the index
// build's frontier expansion all read them. Immutable once built; safe
// for concurrent readers.
//
// A Filter is per-query state the size of the data graph's vertex set. It
// travels on the QueryTree Preprocess returns so that builds over the same
// data graph reuse it; anything that outlives the build — a finished Index,
// a cached planner — holds the tree WithFilter(nil) instead.
type Filter struct {
	data   *graph.Graph
	query  *graph.Graph
	tables [][]Verdict // tables[u][v]; shared between query vertices the filters cannot tell apart
	counts []int       // counts[u] = number of Pass entries of tables[u]
}

// NewFilter evaluates the filters for every query vertex over the data
// vertices carrying its primary label. Query vertices with equal label
// sets, degree and NLC signature share one table.
func NewFilter(data, query *graph.Graph) *Filter {
	n := query.NumVertices()
	f := &Filter{
		data:   data,
		query:  query,
		tables: make([][]Verdict, n),
		counts: make([]int, n),
	}
	labels := make([][]graph.Label, n)
	sigs := make([]graph.NLCSignature, n)
next:
	for u := 0; u < n; u++ {
		uu := graph.VertexID(u)
		labels[u] = query.Labels(uu)
		sigs[u] = graph.NLCOf(query, uu)
		deg := query.Degree(uu)
		for w := 0; w < u; w++ {
			if deg == query.Degree(graph.VertexID(w)) && slices.Equal(labels[u], labels[w]) &&
				slices.Equal(sigs[u].Labels, sigs[w].Labels) && slices.Equal(sigs[u].Counts, sigs[w].Counts) {
				f.tables[u], f.counts[u] = f.tables[w], f.counts[w]
				continue next
			}
		}
		table := make([]Verdict, data.NumVertices())
		for _, v := range data.VerticesWithLabel(labels[u][0]) {
			table[v] = verdict(data, v, labels[u][1:], deg, sigs[u])
			if table[v] == Pass {
				f.counts[u]++
			}
		}
		f.tables[u] = table
	}
	return f
}

// verdict is the repository's one evaluation of the label / degree / NLC
// filters for a data vertex v already known to carry the query vertex's
// primary label.
func verdict(data *graph.Graph, v graph.VertexID, extra []graph.Label, deg int, sig graph.NLCSignature) Verdict {
	for _, l := range extra {
		if !data.HasLabel(v, l) {
			return DropLabel
		}
	}
	if data.Degree(v) < deg {
		return DropDegree
	}
	if !data.NLCCovers(v, sig) {
		return DropNLC
	}
	return Pass
}

// Verdicts returns query vertex u's table, indexed by data vertex. The
// result is shared and must not be modified.
func (f *Filter) Verdicts(u graph.VertexID) []Verdict { return f.tables[u] }

// Candidates returns the data vertices passing the LDF+NLC filters for
// query vertex u, sorted ascending.
func (f *Filter) Candidates(u graph.VertexID) []graph.VertexID {
	table := f.tables[u]
	out := make([]graph.VertexID, 0, f.counts[u])
	for _, v := range f.data.VerticesWithLabel(f.query.Label(u)) {
		if table[v] == Pass {
			out = append(out, v)
		}
	}
	return out
}

// Filter returns the verdict tables of t's query against data: the ones
// Preprocess computed when data is the graph it ran on, freshly computed
// ones otherwise (a tree built against another graph — a disk region
// view, a shard part — or one detached by WithFilter(nil)). A fresh
// Filter is not stored on t; callers that will ask again attach it with
// WithFilter.
func (t *QueryTree) Filter(data *graph.Graph) *Filter {
	if t.filter != nil && t.filter.data == data {
		return t.filter
	}
	return NewFilter(data, t.Query)
}

// WithFilter returns t carrying f in place of its own verdict tables — t
// itself when that is already so, a shallow copy sharing the immutable
// tree structure otherwise. WithFilter(nil) is the tree to retain: it
// pins no per-data-vertex state.
func (t *QueryTree) WithFilter(f *Filter) *QueryTree {
	if t.filter == f {
		return t
	}
	nt := *t
	nt.filter = f
	return &nt
}
