package ceci

// CandMap is the key-value structure backing TE_Candidates and
// NTE_Candidates (Section 3.1): keys are candidates of the parent (or
// NTE-neighbor) query vertex, values are the sorted candidates of the
// child adjacent to that key. Both are positions in those vertices' Cands,
// which ascend with the ids they stand for: one arena holds every value
// list back to back, and dense offsets, one per key position plus one, cut
// it — so At is an array read of contiguous memory, the paper's
// sorted-vector implementation (§3.6) with no key search. bare lists the
// keys whose list is empty but that are entries all the same (NTE keys
// whose values all left after the map was built), so WriteTo writes the
// entries the builder made.
//
// A CandMap is read-only. The builder (builder.go) and ReadIndex are the
// only code that fills the columns, and both are done before anyone
// holds the map.
type CandMap struct {
	offs  []uint32
	arena []uint32
	bare  []uint32
}

// At returns the value list of the key at position key: a view of the
// arena that must not be modified.
func (m *CandMap) At(key uint32) []uint32 { return m.arena[m.offs[key]:m.offs[key+1]] }

// ForEach visits the entries — every key with a list, and the bare ones —
// in ascending key order.
func (m *CandMap) ForEach(fn func(key uint32, values []uint32)) {
	bare := m.bare
	for p := uint32(0); int(p)+1 < len(m.offs); p++ {
		if vals := m.At(p); len(vals) > 0 {
			fn(p, vals)
		} else if len(bare) > 0 && bare[0] == p {
			fn(p, vals)
			bare = bare[1:]
		}
	}
}

// Len returns the number of entries.
func (m *CandMap) Len() (n int) {
	m.ForEach(func(uint32, []uint32) { n++ })
	return n
}

// CandidateEdges counts the (key, value) pairs, i.e. candidate data edges
// — the unit of the paper's Table 2 size accounting.
func (m *CandMap) CandidateEdges() int64 { return int64(len(m.arena)) }

// flatBytes is the physical footprint: 4 bytes per offset, per arena entry
// and per bare key.
func (m *CandMap) flatBytes() int64 {
	return 4 * int64(len(m.offs)+len(m.arena)+len(m.bare))
}
