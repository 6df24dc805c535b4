package ceci

import (
	"errors"
	"math"
	"slices"

	"ceci/internal/graph"
)

// maxArena is the largest arena the 32-bit offsets column can address. A
// variable only so the overflow test can lower it.
var maxArena int64 = math.MaxUint32

var errArenaOverflow = errors.New("value arena exceeds the 32-bit offsets column")

// mapBuilder is a CandMap under construction: the map's own three columns,
// filled in ascending key order, plus the one piece of build-only state —
// live, the live length of every key's list. Until compact runs, offs[i]
// is only where key i's list starts: cascade deletion shrinks a list in
// place, or drops a key's entry from the three per-key columns, and
// leaves the hole in the arena for compact to squeeze out.
type mapBuilder struct {
	CandMap
	live []uint32
}

// alloc sizes the columns for exactly nkeys keys holding nvals values in
// all, so a map that loses nothing afterwards is finished as it stands.
func (m *mapBuilder) alloc(nkeys, nvals int) {
	m.keys = make([]graph.VertexID, 0, nkeys)
	m.offs = append(make([]uint32, 0, nkeys+1), 0)
	m.arena = make([]graph.VertexID, 0, nvals)
	m.live = make([]uint32, 0, nkeys)
}

// append adds (key, vals). key must exceed every key so far and vals be
// sorted — frontiers are expanded, and files written, in ascending order —
// and nothing may have been deleted yet.
func (m *mapBuilder) append(key graph.VertexID, vals []graph.VertexID) error {
	if int64(len(m.arena))+int64(len(vals)) > maxArena {
		return errArenaOverflow
	}
	m.keys = append(m.keys, key)
	m.arena = append(m.arena, vals...)
	m.offs = append(m.offs, uint32(len(m.arena)))
	m.live = append(m.live, uint32(len(vals)))
	return nil
}

// list returns the live value list of the i-th key.
func (m *mapBuilder) list(i int) []graph.VertexID {
	return m.arena[m.offs[i] : m.offs[i]+m.live[i]]
}

// get returns the live value list of key, or nil.
func (m *mapBuilder) get(key graph.VertexID) []graph.VertexID {
	if i := lowerBound(m.keys, key); i < len(m.keys) && m.keys[i] == key {
		return m.list(i)
	}
	return nil
}

// forEach visits the live (key, values) pairs in ascending key order.
func (m *mapBuilder) forEach(fn func(key graph.VertexID, values []graph.VertexID)) {
	for i, key := range m.keys {
		fn(key, m.list(i))
	}
}

// deleteKey removes key (no-op if absent).
func (m *mapBuilder) deleteKey(key graph.VertexID) {
	if i := lowerBound(m.keys, key); i < len(m.keys) && m.keys[i] == key {
		m.keys = slices.Delete(m.keys, i, i+1)
		m.offs = slices.Delete(m.offs, i, i+1)
		m.live = slices.Delete(m.live, i, i+1)
	}
}

// deleteValue removes vertex v from every value list, appending to emptied
// the keys whose lists became empty. Those keys stay, with empty lists,
// until the caller deletes them (TE keys cascade; NTE keys remain).
func (m *mapBuilder) deleteValue(v graph.VertexID, emptied []graph.VertexID) []graph.VertexID {
	offs, arena := m.offs, m.arena // the sweep is the build's hottest loop
	for i, n := range m.live {
		lst := arena[offs[i] : offs[i]+n]
		if j := lowerBound(lst, v); j < len(lst) && lst[j] == v {
			copy(lst[j:], lst[j+1:])
			m.live[i] = n - 1
			if n == 1 {
				emptied = append(emptied, m.keys[i])
			}
		}
	}
	return emptied
}

// compact slides the live lists down over the holes, in place, and
// returns the finished map. Columns that shrank are copied once into
// arrays of their final size, so what is retained is what PhysicalBytes
// reports.
func (m *mapBuilder) compact() CandMap {
	if m.offs == nil {
		m.offs = make([]uint32, 1)
	}
	end := uint32(0)
	for i, n := range m.live {
		copy(m.arena[end:], m.list(i))
		m.offs[i] = end
		end += n
	}
	m.offs[len(m.keys)] = end
	return CandMap{keys: fit(m.keys), offs: fit(m.offs), arena: fit(m.arena[:end])}
}

// fit returns s with no spare capacity, copying only if it has some.
func fit[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// binChunk is the number of vertex IDs per bin chunk (32 KiB): large
// enough that per-frontier-key lists amortize to a handful of allocations
// per build, small enough not to waste memory on tiny clusters (the
// incremental mode builds one index per pivot).
const binChunk = 8192

// buildScratch is one worker's private bin during frontier expansion
// (§3.6): the list of each frontier key the worker handles is computed
// into buf and put into the bin, and the expansion's serial pass copies
// the bins into the map's arena in key order. Workers touch only their
// own scratch, so expansion needs no synchronization beyond the work
// cursor. The chunks are reused by every expansion of the build.
type buildScratch struct {
	buf    []graph.VertexID
	chunks [][]graph.VertexID
	cur    int // the chunk being filled
}

// put copies vs into the bin and returns the copy, valid until reset.
func (sc *buildScratch) put(vs []graph.VertexID) []graph.VertexID {
	if len(vs) == 0 {
		return nil
	}
	for sc.cur < len(sc.chunks) && cap(sc.chunks[sc.cur])-len(sc.chunks[sc.cur]) < len(vs) {
		sc.cur++
	}
	if sc.cur == len(sc.chunks) {
		sc.chunks = append(sc.chunks, make([]graph.VertexID, 0, max(binChunk, len(vs))))
	}
	c := append(sc.chunks[sc.cur], vs...)
	sc.chunks[sc.cur] = c
	return c[len(c)-len(vs):]
}

// reset empties the bin, keeping its chunks.
func (sc *buildScratch) reset() {
	for i := range sc.chunks {
		sc.chunks[i] = sc.chunks[i][:0]
	}
	sc.cur = 0
}
