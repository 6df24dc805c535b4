package ceci

import (
	"fmt"

	"ceci/internal/graph"
)

// TESlot names the TE map where the helpers below take a slot; j names
// NTE[j].
const TESlot = teSlot

// IDsAt returns the ids u's map in slot lists under the data vertex key —
// nil when key is no entry, empty but non-nil for a bare one: the id-level
// read the external tests check an index with.
func (ix *Index) IDsAt(u graph.VertexID, slot int, key graph.VertexID) []graph.VertexID {
	return idsAt(ix.Nodes[u].slot(slot), ix.keySpace(u, slot), ix.Nodes[u].Cands, key)
}

// ForEachID visits the entries of u's map in slot as ids, in ascending key
// order.
func (ix *Index) ForEachID(u graph.VertexID, slot int, fn func(key graph.VertexID, vals []graph.VertexID)) {
	keys, vals := ix.keySpace(u, slot), ix.Nodes[u].Cands
	ix.Nodes[u].slot(slot).ForEach(func(p uint32, list []uint32) {
		ids := make([]graph.VertexID, len(list))
		for i, q := range list {
			ids[i] = vals[q]
		}
		fn(keys[p], ids)
	})
}

// CheckColumns returns the first way a map of ix fails to be positions
// over its key and value spaces — offsets one per key position plus one,
// ascending from 0 to the arena's end; every list strictly ascending and
// inside the value space; bare keys ascending, inside the key space and
// empty — or a cardinality column out of step with its candidates.
func (ix *Index) CheckColumns() error {
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		if len(node.cardVals) != len(node.Cands) {
			return fmt.Errorf("u%d: %d cardinalities for %d candidates", u, len(node.cardVals), len(node.Cands))
		}
		for slot := teSlot; slot < len(node.NTE); slot++ {
			m, keys := node.slot(slot), ix.keySpace(graph.VertexID(u), slot)
			if len(m.offs) != len(keys)+1 || m.offs[0] != 0 || int(m.offs[len(keys)]) != len(m.arena) {
				return fmt.Errorf("u%d slot %d: offsets %v over %d keys and %d values", u, slot, m.offs, len(keys), len(m.arena))
			}
			for p := range keys {
				if m.offs[p] > m.offs[p+1] {
					return fmt.Errorf("u%d slot %d: offsets descend at key %d", u, slot, p)
				}
				list := m.At(uint32(p))
				for i, q := range list {
					if int(q) >= len(node.Cands) || i > 0 && q <= list[i-1] {
						return fmt.Errorf("u%d slot %d: key %d lists %v over %d candidates", u, slot, p, list, len(node.Cands))
					}
				}
			}
			for i, p := range m.bare {
				if int(p) >= len(keys) || i > 0 && p <= m.bare[i-1] || len(m.At(p)) > 0 {
					return fmt.Errorf("u%d slot %d: bare keys %v over %d keys", u, slot, m.bare, len(keys))
				}
			}
		}
	}
	return nil
}
