package ceci

import (
	"math"
	"sync"

	"ceci/internal/graph"
)

// refine implements Algorithm 2: a reverse matching-order sweep that
// computes the cardinality of every (query vertex, candidate) pair and
// deletes candidates whose cardinality is zero — i.e. candidates
// guaranteed to appear in no embedding. Cardinality is defined bottom-up
// (Section 3.3):
//
//	card(u, v) = ∏_{uc ∈ treeChildren(u)} Σ_{vc ∈ TE[uc][v]} card(uc, vc)
//
// with card(u, v) forced to 0 when u has an incoming non-tree edge whose
// NTE structure does not contain v among its values (such a v can never
// satisfy that query edge). Leaf candidates have cardinality 1.
//
// The cardinalities of u's survivors, in candidate order, are u's column.
// A deletion at u cascades only to u's ancestors, which the sweep has yet
// to reach, and changes no other candidate's product, so the products are
// all computed before the first deletion, a level's zero-cardinality
// candidates leave as one set (removeCandidates) and a column, once
// written, stays parallel to its candidates. The columns are the
// builder's (b.cards), at eight bytes a value until build narrows them.
func (b *builder) refine() {
	tree := b.ix.Tree
	for i := len(tree.Order) - 1; i >= 0 && !b.isCancelled(); i-- {
		u := tree.Order[i]
		node := &b.ix.Nodes[u]
		cards := b.cardProducts(u)

		// v must be a value of every incoming NTE edge (Algorithm 2 line
		// 5). The values are candidates of u, so each edge sets the sign
		// bit — free, cardinalities are not negative — of the cardinality
		// at every value's position, and a pass over the column keeps the
		// marked ones, unmarked, and zeroes the rest: no union is built and
		// no candidate is searched for.
		if len(b.nte[u]) > 0 {
			pos := b.pos.fill(node.Cands, b.ix.Data.NumVertices())
			for j := range b.nte[u] {
				m := &b.nte[u][j]
				for _, list := range m.lists {
					for _, v := range list {
						cards[pos[v]] |= math.MinInt64
					}
				}
				for k, c := range cards {
					cards[k] = c & (c >> 63) & math.MaxInt64
				}
			}
		}

		// The zero-cardinality candidates go as one set, after the column
		// of the survivors is cut: removal mutates node.Cands.
		dead, kept := b.dead[:0], 0
		for k, v := range node.Cands {
			if cards[k] == 0 {
				dead = append(dead, v)
				continue
			}
			cards[kept] = cards[k]
			kept++
		}
		b.cards[u] = cards[:kept]
		if st := b.ix.opts.Stats; st != nil {
			st.FilteredRefine.Add(int64(len(dead)))
		}
		if p := b.ix.opts.Profile; p != nil {
			p.Vertex(int(u)).AddRefined(int64(len(dead)))
		}
		b.removeCandidates(u, dead)
	}
}

// cardProducts returns, for every candidate v of u in order, ∏ over u's
// tree children of the summed cardinalities of v's TE list there (1 for a
// leaf). The child's TE keys are a subset of u's candidates — a key is
// deleted with its candidate — and both ascend, so one cursor walks the
// key column beside the candidates. A TE list is a subset of the child's
// candidates, so each value's cardinality is read off the child's column
// (b.cards) at the value's position (posTable); under a leaf child that
// column is all ones, the sum is the list's length and no position is
// looked up.
func (b *builder) cardProducts(u graph.VertexID) []int64 {
	tree := b.ix.Tree
	cands := b.ix.Nodes[u].Cands
	cards := make([]int64, len(cands))
	for k := range cards {
		cards[k] = 1
	}
	for _, uc := range tree.Children[u] {
		child, col := &b.ix.Nodes[uc], b.cards[uc]
		te := &b.te[uc]
		leaf := len(tree.Children[uc]) == 0
		var pos posTable
		if !leaf {
			pos = b.pos.fill(child.Cands, b.ix.Data.NumVertices())
		}
		i := 0 // te.keys[i] is the first key not below the candidate at hand
		for k, v := range cands {
			if i == len(te.keys) || te.keys[i] != v {
				cards[k] = 0 // no TE list under v
				continue
			}
			lst := te.lists[i]
			i++
			if cards[k] == 0 {
				continue
			}
			var sum int64
			if leaf {
				sum = int64(len(lst))
			} else {
				for _, vc := range lst {
					sum = satAdd(sum, col[pos[vc]])
				}
			}
			cards[k] = satMul(cards[k], sum)
		}
	}
	return cards
}

// posTable finds the position of an id in a sorted candidate column with
// one array read: entry v is v's position in the column last filled in,
// and every other entry is stale. It is 4 bytes per data vertex, filled in
// one pass over the column and never cleared — so builds share tables
// (posTables), and a one-cluster build on a large graph pays for the
// candidates it touches, not for zeroing a table as large as the graph.
type posTable []uint32

var posTables = sync.Pool{New: func() any { return new(posTable) }}

// fill records the positions of col, whose ids are below n, and returns
// the table.
func (t *posTable) fill(col []graph.VertexID, n int) posTable {
	if len(*t) < n {
		*t = make(posTable, n)
	}
	for p, v := range col {
		(*t)[v] = uint32(p)
	}
	return *t
}

// intersect appends to dst, whose capacity must take all of vs, in order,
// the members of vs that are in col, the column t was last filled with. w is in col exactly when col holds w
// at t[w], an entry past col read as 0: fill wrote t[col[p]] = p, so a
// stale entry points past col or at a vertex other than w, and col[0] is
// w only if t[w] is 0. The entry is masked, not compared, and every w is
// written with the end advancing by the test's outcome, so the loop has no
// branch.
func (t posTable) intersect(dst, vs, col []graph.VertexID) []graph.VertexID {
	if len(col) == 0 {
		return dst
	}
	n := len(dst)
	dst = dst[:n+len(vs)]
	for _, w := range vs {
		p := t[w]
		p &= uint32((int64(p) - int64(len(col))) >> 63) // all ones below len(col)
		dst[n] = w
		if col[p] == w {
			n++
		}
	}
	return dst[:n]
}

// optimisticCardinalities fills the cardinality columns from TE sizes
// without pruning; used when refinement is disabled so FGD decomposition
// still has a signal.
func (b *builder) optimisticCardinalities() {
	tree := b.ix.Tree
	for i := len(tree.Order) - 1; i >= 0; i-- {
		u := tree.Order[i]
		b.cards[u] = b.cardProducts(u)
	}
}
