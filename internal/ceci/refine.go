package ceci

import (
	"ceci/internal/graph"
	"ceci/internal/setops"
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
func (ix *Index) refine() {
	tree := ix.Tree
	for i := len(tree.Order) - 1; i >= 0; i-- {
		if ix.buildCancelled() {
			return
		}
		u := tree.Order[i]
		node := &ix.Nodes[u]
		node.Card = make(map[graph.VertexID]int64, len(node.Cands))

		// Union of values per incoming NTE edge: v must appear in every
		// one of them (Algorithm 2 line 5).
		nteUnions := make([][]graph.VertexID, len(node.NTE))
		for j := range node.NTE {
			nteUnions[j] = ix.valueUnion(&node.NTE[j])
		}

		// Iterate over a snapshot: removal mutates node.Cands.
		cands := make([]graph.VertexID, len(node.Cands))
		copy(cands, node.Cands)
		for _, v := range cands {
			card := ix.cardinalityOf(u, v, nteUnions)
			if card == 0 {
				if ix.opts.Stats != nil {
					ix.opts.Stats.FilteredRefine.Add(1)
				}
				if p := ix.opts.Profile; p != nil {
					p.Vertex(int(u)).AddRefined(1)
				}
				ix.removeCandidate(u, v)
				continue
			}
			node.Card[v] = card
		}
	}
}

func (ix *Index) cardinalityOf(u graph.VertexID, v graph.VertexID, nteUnions [][]graph.VertexID) int64 {
	for _, union := range nteUnions {
		if !setops.Contains(union, v) {
			return 0
		}
	}
	card := int64(1)
	for _, uc := range ix.Tree.Children[u] {
		child := &ix.Nodes[uc]
		var sum int64
		for _, vc := range child.TE.Get(v) {
			sum = satAdd(sum, child.Card[vc])
		}
		card = satMul(card, sum)
		if card == 0 {
			return 0
		}
	}
	return card
}
