package order

import (
	"cmp"
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
// sets, degree and NLC signature share one table, and the tables of one
// primary label are filled in one walk over that label's vertices: each
// data vertex is read once, however many of them test it.
func NewFilter(data, query *graph.Graph) *Filter {
	n := query.NumVertices()
	f := &Filter{
		data:   data,
		query:  query,
		tables: make([][]Verdict, n),
		counts: make([]int, n),
	}
	// class[u] is what the filters ask of u, shared with every query vertex
	// asking the same.
	class := make([]*filterClass, n)
	var classes []*filterClass
next:
	for u := 0; u < n; u++ {
		uu := graph.VertexID(u)
		c := &filterClass{labels: query.Labels(uu), deg: query.Degree(uu), sig: graph.NLCOf(query, uu)}
		for _, o := range classes {
			if c.deg == o.deg && slices.Equal(c.labels, o.labels) &&
				slices.Equal(c.sig.Labels, o.sig.Labels) && slices.Equal(c.sig.Counts, o.sig.Counts) {
				class[u] = o
				continue next
			}
		}
		c.req = graph.CompileNLC(c.sig)
		c.table = make([]Verdict, data.NumVertices())
		class[u] = c
		classes = append(classes, c)
	}
	// Sorted by primary label, the classes of one walk are adjacent.
	slices.SortStableFunc(classes, func(a, b *filterClass) int { return cmp.Compare(a.labels[0], b.labels[0]) })
	for len(classes) > 0 {
		l, k := classes[0].labels[0], 1
		for k < len(classes) && classes[k].labels[0] == l {
			k++
		}
		group := classes[:k]
		classes = classes[k:]
		for _, v := range data.VerticesWithLabel(l) {
			deg := data.Degree(v)
			for _, c := range group {
				c.table[v] = verdict(data, v, deg, c)
				if c.table[v] == Pass {
					c.count++
				}
			}
		}
	}
	for u, c := range class {
		f.tables[u], f.counts[u] = c.table, c.count
	}
	return f
}

// filterClass is what the filters ask of a query vertex — its labels, its
// degree and its NLC signature, compiled once into the requirement every
// data vertex is tested against — and the verdict table and Pass count of
// the answers.
type filterClass struct {
	labels []graph.Label
	deg    int
	sig    graph.NLCSignature
	req    graph.NLCReq
	table  []Verdict
	count  int
}

// verdict is the repository's one evaluation of the label / degree / NLC
// filters for a data vertex v of degree deg, already known to carry c's
// primary label.
func verdict(data *graph.Graph, v graph.VertexID, deg int, c *filterClass) Verdict {
	for _, l := range c.labels[1:] {
		if !data.HasLabel(v, l) {
			return DropLabel
		}
	}
	if deg < c.deg {
		return DropDegree
	}
	if !data.NLCCovers(v, c.req) {
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
