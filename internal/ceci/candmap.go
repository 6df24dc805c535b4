package ceci

import "ceci/internal/graph"

// CandMap is the key-value structure backing TE_Candidates and
// NTE_Candidates (Section 3.1): keys are candidates of the parent (or
// NTE-neighbor) query vertex, values are the sorted candidates of the
// child adjacent to that key. Keys are kept sorted so lookups are binary
// searches, mirroring the paper's sorted-vector implementation (§3.6).
//
// The map has two storage modes:
//
//   - mutable (construction and refinement): one heap slice per key, so
//     cascade deletion can shrink individual value lists in place;
//   - frozen flat (steady state, after Index.Freeze): all values live in
//     one shared arena and each key holds a [start, end) offset pair, so
//     Get is a binary search plus a view of contiguous memory — the
//     paper's ~4-bytes-per-candidate-edge layout (Table 2) with no
//     per-entry slice headers or pointer chasing.
//
// Frozen maps are immutable: the mutating methods panic.
type CandMap struct {
	keys  []graph.VertexID
	vals  [][]graph.VertexID // mutable mode; nil once frozen
	offs  []uint32           // frozen mode: len(keys)+1 offsets into arena
	arena []graph.VertexID   // frozen mode: contiguous value storage
}

// Len returns the number of live keys.
func (m *CandMap) Len() int { return len(m.keys) }

// Frozen reports whether the map is in the flat arena-backed mode.
func (m *CandMap) Frozen() bool { return m.offs != nil }

// Get returns the value list for key, or nil. On a frozen map the result
// is a view of the shared arena; it must not be modified.
func (m *CandMap) Get(key graph.VertexID) []graph.VertexID {
	keys := m.keys
	lo, hi := 0, len(keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(keys) && keys[lo] == key {
		if m.offs != nil {
			return m.arena[m.offs[lo]:m.offs[lo+1]]
		}
		return m.vals[lo]
	}
	return nil
}

func (m *CandMap) search(key graph.VertexID) int {
	lo, hi := 0, len(m.keys)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if m.keys[mid] < key {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// mutable panics when the map has been frozen: every structural change
// must happen before Index.Freeze.
func (m *CandMap) mutable() {
	if m.offs != nil {
		panic("ceci: mutation of frozen CandMap")
	}
}

// AppendKey adds (key, values) assuming key is strictly greater than every
// existing key — the natural case during construction, where frontiers are
// expanded in ascending order. values must be sorted.
func (m *CandMap) AppendKey(key graph.VertexID, values []graph.VertexID) {
	m.mutable()
	if n := len(m.keys); n > 0 && m.keys[n-1] >= key {
		m.insertKey(key, values)
		return
	}
	m.keys = append(m.keys, key)
	m.vals = append(m.vals, values)
}

func (m *CandMap) insertKey(key graph.VertexID, values []graph.VertexID) {
	i := m.search(key)
	if i < len(m.keys) && m.keys[i] == key {
		m.vals[i] = values
		return
	}
	m.keys = append(m.keys, 0)
	m.vals = append(m.vals, nil)
	copy(m.keys[i+1:], m.keys[i:])
	copy(m.vals[i+1:], m.vals[i:])
	m.keys[i] = key
	m.vals[i] = values
}

// Delete removes key (no-op if absent).
func (m *CandMap) Delete(key graph.VertexID) {
	m.mutable()
	i := m.search(key)
	if i == len(m.keys) || m.keys[i] != key {
		return
	}
	m.keys = append(m.keys[:i], m.keys[i+1:]...)
	m.vals = append(m.vals[:i], m.vals[i+1:]...)
}

// DeleteValue removes vertex v from every value list, returning the keys
// whose lists became empty (callers cascade those deletions).
func (m *CandMap) DeleteValue(v graph.VertexID, emptied []graph.VertexID) []graph.VertexID {
	m.mutable()
	for i := range m.keys {
		lst := m.vals[i]
		lo, hi := 0, len(lst)
		for lo < hi {
			mid := int(uint(lo+hi) >> 1)
			if lst[mid] < v {
				lo = mid + 1
			} else {
				hi = mid
			}
		}
		if lo < len(lst) && lst[lo] == v {
			m.vals[i] = append(lst[:lo], lst[lo+1:]...)
			if len(m.vals[i]) == 0 {
				emptied = append(emptied, m.keys[i])
			}
		}
	}
	return emptied
}

// ForEach visits live (key, values) pairs in ascending key order.
func (m *CandMap) ForEach(fn func(key graph.VertexID, values []graph.VertexID)) {
	if m.offs != nil {
		for i := range m.keys {
			fn(m.keys[i], m.arena[m.offs[i]:m.offs[i+1]])
		}
		return
	}
	for i := range m.keys {
		fn(m.keys[i], m.vals[i])
	}
}

// Keys returns the sorted key slice (aliases internal storage).
func (m *CandMap) Keys() []graph.VertexID { return m.keys }

// CandidateEdges counts the (key, value) pairs, i.e. candidate data edges
// — the unit of the paper's Table 2 size accounting.
func (m *CandMap) CandidateEdges() int64 {
	if n := len(m.offs); n > 0 {
		return int64(m.offs[n-1]) - int64(m.offs[0])
	}
	var n int64
	for _, v := range m.vals {
		n += int64(len(v))
	}
	return n
}

// freezeInto compacts the map into the flat mode, appending every value
// list to arena (which must have enough spare capacity that no append
// reallocates — Node.freeze presizes it) and installing [start, end)
// offsets. The mutable per-key slices are released. Returns the extended
// arena.
func (m *CandMap) freezeInto(arena []graph.VertexID) []graph.VertexID {
	if m.offs != nil {
		return arena
	}
	offs := make([]uint32, len(m.keys)+1)
	start := len(arena)
	for i, v := range m.vals {
		offs[i] = uint32(len(arena) - start)
		arena = append(arena, v...)
	}
	offs[len(m.keys)] = uint32(len(arena) - start)
	m.offs = offs
	m.arena = arena[start:len(arena):len(arena)]
	m.vals = nil
	return arena
}

// flatBytes is the physical footprint of the frozen representation:
// 4 bytes per key, 4 per offset, 4 per arena entry. Zero when mutable.
func (m *CandMap) flatBytes() int64 {
	if m.offs == nil {
		return 0
	}
	return 4 * int64(len(m.keys)+len(m.offs)+len(m.arena))
}
