package ceci

import (
	"fmt"
	"math"
	"unsafe"

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
// ascending from 0 to the arena's end; the arena at its vertex's width
// (Node.Narrow); every list strictly ascending and inside the value space;
// bare keys ascending, inside the key space and empty — or a cardinality
// column out of step with its candidates or wider or narrower than its
// largest value needs.
func (ix *Index) CheckColumns() error {
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		if w := node.CardWidth(); len(node.cards) != w*len(node.Cands) || len(node.Cands) > 0 && w != CardWidthOf(node.MaxCard()) {
			return fmt.Errorf("u%d: %d cardinality bytes for %d candidates, largest %d", u, len(node.cards), len(node.Cands), node.MaxCard())
		}
		for slot := teSlot; slot < len(node.NTE); slot++ {
			m, keys := node.slot(slot), ix.keySpace(graph.VertexID(u), slot)
			if node.Narrow() && m.wide != nil || !node.Narrow() && m.narrow != nil {
				return fmt.Errorf("u%d slot %d: %d two-byte and %d four-byte values over %d candidates", u, slot, len(m.narrow), len(m.wide), len(node.Cands))
			}
			arena := len(m.narrow) + len(m.wide)
			if len(m.offs) != len(keys)+1 || m.offs[0] != 0 || int(m.offs[len(keys)]) != arena {
				return fmt.Errorf("u%d slot %d: offsets %v over %d keys and %d values", u, slot, m.offs, len(keys), arena)
			}
			for p := range keys {
				if m.offs[p] > m.offs[p+1] {
					return fmt.Errorf("u%d slot %d: offsets descend at key %d", u, slot, p)
				}
				list := m.AppendAt(nil, uint32(p))
				for i, q := range list {
					if int(q) >= len(node.Cands) || i > 0 && q <= list[i-1] {
						return fmt.Errorf("u%d slot %d: key %d lists %v over %d candidates", u, slot, p, list, len(node.Cands))
					}
				}
			}
			for i, p := range m.bare {
				if int(p) >= len(keys) || i > 0 && p <= m.bare[i-1] || m.offs[p] != m.offs[p+1] {
					return fmt.Errorf("u%d slot %d: bare keys %v over %d keys", u, slot, m.bare, len(keys))
				}
			}
		}
	}
	return nil
}

// ArenaWidth returns the bytes a value takes in u's maps as compact laid
// them out — 2 for two-byte arenas, 4 for four-byte ones, 0 when no map of
// u holds a value, and -1 when its maps disagree.
func (ix *Index) ArenaWidth(u graph.VertexID) int {
	node, width := &ix.Nodes[u], 0
	for slot := teSlot; slot < len(node.NTE); slot++ {
		m, w := node.slot(slot), 0
		switch {
		case len(m.narrow) > 0 && len(m.wide) > 0:
			return -1
		case len(m.narrow) > 0:
			w = 2
		case len(m.wide) > 0:
			w = 4
		default:
			continue
		}
		if width != 0 && width != w {
			return -1
		}
		width = w
	}
	return width
}

// CardWidth returns the bytes a value of the node's cardinality column
// takes, off the column's length; 0 for a node with no candidates.
func (n *Node) CardWidth() int {
	if len(n.Cands) == 0 {
		return 0
	}
	return len(n.cards) / len(n.Cands)
}

// MaxCard returns the largest value of the node's cardinality column, 0
// when it is empty.
func (n *Node) MaxCard() int64 {
	var top int64
	for p := range n.Cands {
		top = max(top, n.CardAt(uint32(p)))
	}
	return top
}

// CardWidthOf is the width rule written out apart from cardColumn: the
// bytes a value takes in a column whose largest value is top.
func CardWidthOf(top int64) int {
	switch {
	case top <= math.MaxUint16:
		return 2
	case top <= math.MaxUint32:
		return 4
	}
	return 8
}

// ColumnBytes returns what ix's columns hold, counted off the slices and
// not by PhysicalBytes' formula: the capacity of every column of every
// node times its element's size.
func (ix *Index) ColumnBytes() int64 {
	var n int64
	for u := range ix.Nodes {
		node := &ix.Nodes[u]
		n += capBytes(node.Cands) + capBytes(node.cards)
		for slot := teSlot; slot < len(node.NTE); slot++ {
			m := node.slot(slot)
			n += capBytes(m.offs) + capBytes(m.narrow) + capBytes(m.wide) + capBytes(m.bare)
		}
	}
	return n
}

func capBytes[T any](s []T) int64 {
	var zero T
	return int64(cap(s)) * int64(unsafe.Sizeof(zero))
}
