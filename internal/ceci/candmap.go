package ceci

import (
	"ceci/internal/graph"
	"ceci/internal/setops"
)

// CandMap is the key-value structure backing TE_Candidates and
// NTE_Candidates (Section 3.1): keys are candidates of the parent (or
// NTE-neighbor) query vertex, values are the sorted candidates of the
// child adjacent to that key. It is three columns: the sorted keys, one
// arena holding every value list back to back in key order, and the
// len(keys)+1 offsets that cut the arena into lists — so Get is a binary
// search plus a view of contiguous memory, the paper's sorted-vector
// implementation (§3.6) at ~4 bytes per candidate edge (Table 2) with no
// per-entry slice headers or pointer chasing.
//
// A CandMap is read-only. The builder (builder.go) and ReadIndex are the
// only code that fills the columns, and both are done before anyone
// holds the map.
type CandMap struct {
	keys  []graph.VertexID
	offs  []uint32
	arena []graph.VertexID
}

// lowerBound returns the smallest i with vs[i] >= x, len(vs) if none. (The
// generic slices.BinarySearch is not inlined into the sweeps that need it
// and measured 1.8x slower builds on the clique queries.)
func lowerBound(vs []graph.VertexID, x graph.VertexID) int {
	lo, hi := 0, len(vs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if vs[mid] < x {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Len returns the number of keys.
func (m *CandMap) Len() int { return len(m.keys) }

// at returns the value list of the i-th key: a view of the arena.
func (m *CandMap) at(i int) []graph.VertexID { return m.arena[m.offs[i]:m.offs[i+1]] }

// Get returns the value list for key, or nil. The result is a view of
// the arena; it must not be modified.
func (m *CandMap) Get(key graph.VertexID) []graph.VertexID {
	if i := lowerBound(m.keys, key); i < len(m.keys) && m.keys[i] == key {
		return m.arena[m.offs[i]:m.offs[i+1]] // at(i), spelled out: keeps Get inlinable
	}
	return nil
}

// GetNear is Get with a finger. *finger is where the previous lookup
// through it landed: the same key returns the same view with no search,
// a larger key gallops forward from there (a sibling loop presents its
// keys in ascending order), and anything else — a smaller key, or a
// finger that is out of range or was left by another map — is a binary
// search bounded by the finger where it can be. The finger is only a
// hint: the result equals Get(key) whatever it holds.
func (m *CandMap) GetNear(finger *int, key graph.VertexID) []graph.VertexID {
	keys := m.keys
	i := *finger
	switch {
	case uint(i) >= uint(len(keys)):
		i = lowerBound(keys, key)
	case keys[i] == key:
		return m.at(i)
	case keys[i] < key:
		i = setops.Gallop(keys, i+1, key)
	default:
		i = lowerBound(keys[:i], key)
	}
	*finger = i
	if i < len(keys) && keys[i] == key {
		return m.at(i)
	}
	return nil
}

// ForEach visits (key, values) pairs in ascending key order.
func (m *CandMap) ForEach(fn func(key graph.VertexID, values []graph.VertexID)) {
	for i, key := range m.keys {
		fn(key, m.at(i))
	}
}

// Keys returns the sorted key slice (aliases internal storage).
func (m *CandMap) Keys() []graph.VertexID { return m.keys }

// CandidateEdges counts the (key, value) pairs, i.e. candidate data edges
// — the unit of the paper's Table 2 size accounting.
func (m *CandMap) CandidateEdges() int64 { return int64(len(m.arena)) }

// flatBytes is the physical footprint: 4 bytes per key, 4 per offset, 4
// per arena entry.
func (m *CandMap) flatBytes() int64 {
	return 4 * int64(len(m.keys)+len(m.offs)+len(m.arena))
}
