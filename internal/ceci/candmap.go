package ceci

import (
	"slices"

	"ceci/internal/setops"
)

// CandMap is the key-value structure backing TE_Candidates and
// NTE_Candidates (Section 3.1): keys are candidates of the parent (or
// NTE-neighbor) query vertex, values are the sorted candidates of the
// child adjacent to that key. Both are positions in those vertices' Cands,
// which ascend with the ids they stand for: one arena holds every value
// list back to back, and dense offsets, one per key position plus one, cut
// it — so a lookup is an array read of contiguous memory, the paper's
// sorted-vector implementation (§3.6) with no key search. bare lists the
// keys whose list is empty but that are entries all the same (NTE keys
// whose values all left after the map was built), so Len, ForEach and
// Index.Dump see the entries the builder made.
//
// The arena is two bytes a value when the map's own vertex is narrow
// (Node.Narrow: at most 2^16 candidates, so every position fits) and four
// otherwise; exactly one of narrow and wide holds it. All maps of one
// vertex hold positions in the same Cands, so they share its width, and a
// reader branches on the vertex once per lookup: U16 for a narrow one,
// U32 for the rest.
//
// A CandMap is read-only. The builder (builder.go) is the only code that
// fills the columns, and it is done before anyone holds the map.
type CandMap struct {
	offs   []uint32
	narrow []uint16
	wide   []uint32
	bare   []uint32
}

// Lists is a CandMap's value lists at one width: the map's offsets over
// its arena.
type Lists[T setops.Position] struct {
	offs []uint32
	vals []T
}

// At returns the value list of the key at position key: a view of the
// arena that must not be modified.
func (l Lists[T]) At(key uint32) []T { return l.vals[l.offs[key]:l.offs[key+1]] }

// U16 returns the lists of a narrow vertex's map.
func (m *CandMap) U16() Lists[uint16] { return Lists[uint16]{m.offs, m.narrow} }

// U32 returns the lists of a wide vertex's map.
func (m *CandMap) U32() Lists[uint32] { return Lists[uint32]{m.offs, m.wide} }

// AppendAt appends the value list of the key at position key to dst, at
// four bytes a value whatever the map's width.
func (m *CandMap) AppendAt(dst []uint32, key uint32) []uint32 {
	lo, hi := m.offs[key], m.offs[key+1]
	if m.wide != nil {
		return append(dst, m.wide[lo:hi]...)
	}
	return setops.Widen(dst, m.narrow[lo:hi])
}

// has reports whether the list of the key at position key holds the
// position x of the map's own vertex.
func (m *CandMap) has(key, x uint32) bool {
	lo, hi := m.offs[key], m.offs[key+1]
	if m.wide != nil {
		_, ok := slices.BinarySearch(m.wide[lo:hi], x)
		return ok
	}
	_, ok := slices.BinarySearch(m.narrow[lo:hi], uint16(x))
	return ok
}

// ForEach visits the entries — every key with a list, and the bare ones —
// in ascending key order. values is valid only during the call.
func (m *CandMap) ForEach(fn func(key uint32, values []uint32)) {
	var buf []uint32
	bare := m.bare
	for p := uint32(0); int(p)+1 < len(m.offs); p++ {
		if m.offs[p] < m.offs[p+1] {
			buf = m.AppendAt(buf[:0], p)
			fn(p, buf)
		} else if len(bare) > 0 && bare[0] == p {
			fn(p, buf[:0])
			bare = bare[1:]
		}
	}
}

// Len returns the number of entries.
func (m *CandMap) Len() int {
	n := len(m.bare)
	for p := 0; p+1 < len(m.offs); p++ {
		if m.offs[p] < m.offs[p+1] {
			n++
		}
	}
	return n
}

// CandidateEdges counts the (key, value) pairs, i.e. candidate data edges
// — the unit of the paper's Table 2 size accounting.
func (m *CandMap) CandidateEdges() int64 { return int64(len(m.narrow) + len(m.wide)) }

// flatBytes is the physical footprint: 4 bytes per offset and per bare
// key, and 2 or 4 per arena entry.
func (m *CandMap) flatBytes() int64 {
	return 4*int64(len(m.offs)+len(m.wide)+len(m.bare)) + 2*int64(len(m.narrow))
}
