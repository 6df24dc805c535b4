package ceci

import (
	"errors"
	"math"
	"slices"

	"ceci/internal/graph"
)

// maxArena is the most values one map may hold: what the finished map's
// 32-bit offsets column can address. A variable only so the overflow test
// can lower it.
var maxArena int64 = math.MaxUint32

var errArenaOverflow = errors.New("value arena exceeds the 32-bit offsets column")

// mapBuilder is a CandMap under construction, in vertex ids (positions are
// final only once refinement is): sorted keys and, beside each, its live
// value list — a view of the worker chunk (buildScratch) the expansion
// wrote it into, never copied. Cascade deletion shrinks a list in place, or
// drops a key's entry from both columns; compact writes the one column the
// finished map retains.
type mapBuilder struct {
	keys  []graph.VertexID
	lists [][]graph.VertexID
}

// alloc sizes the two columns for exactly nkeys keys.
func (m *mapBuilder) alloc(nkeys int) {
	m.keys = make([]graph.VertexID, 0, nkeys)
	m.lists = make([][]graph.VertexID, 0, nkeys)
}

// add appends (key, vals), keeping the view vals. key must exceed every
// key so far and vals be sorted — frontiers are expanded in ascending
// order — and nothing may have been deleted yet.
func (m *mapBuilder) add(key graph.VertexID, vals []graph.VertexID) {
	m.keys = append(m.keys, key)
	m.lists = append(m.lists, vals)
}

// deleteKeys removes every key that is in the ascending set dead (absent
// ones are no-ops), rewriting the two per-key columns once: nothing moves
// below the first dead key, one merge walk covers the stretch the set
// spans, and what lies above the last dead key slides down in one copy.
func (m *mapBuilder) deleteKeys(dead []graph.VertexID) {
	keys, lists := m.keys, m.lists
	if len(dead) == 0 || len(keys) == 0 {
		return
	}
	r := lowerBound(keys, dead[0])
	w := r
	for j := 0; r < len(keys) && j < len(dead); r++ {
		key := keys[r]
		for j < len(dead) && dead[j] < key {
			j++
		}
		if j < len(dead) && dead[j] == key {
			continue
		}
		keys[w], lists[w] = key, lists[r]
		w++
	}
	if w == r {
		return
	}
	n := w + copy(keys[w:], keys[r:])
	copy(lists[w:], lists[r:])
	m.keys, m.lists = keys[:n], lists[:n]
}

// subtract removes from list, in place, the values that are in dead — both
// ascending, dead not empty — and returns how many are left. A list that
// lies entirely below or above the set is not entered. Otherwise it is
// deleteKeys' shape: nothing moves below the first value the two can share
// (one binary search on each side finds it), one merge walk covers the
// stretch up to the end of the shorter side, and what lies above it slides
// down in one copy — so a set of one is a binary search and a memmove.
func subtract(list, dead []graph.VertexID) int {
	n := len(list)
	if n == 0 || list[0] > dead[len(dead)-1] || list[n-1] < dead[0] {
		return n
	}
	r := lowerBound(list, dead[0]) // < n: the list's last value is not below dead[0]
	w := r
	for j := lowerBound(dead, list[r]); r < n && j < len(dead); r++ {
		v := list[r]
		for j < len(dead) && dead[j] < v {
			j++
		}
		if j < len(dead) && dead[j] == v {
			continue
		}
		list[w] = v
		w++
	}
	if w == r {
		return n
	}
	return w + copy(list[w:], list[r:])
}

// deleteValues removes the ascending set dead from every value list in one
// pass over the map, appending to emptied, in key order, the keys whose
// lists became empty. Those keys stay, with empty lists, until the caller
// deletes them (TE keys cascade; NTE keys remain).
func (m *mapBuilder) deleteValues(dead, emptied []graph.VertexID) []graph.VertexID {
	if len(dead) == 0 {
		return emptied
	}
	for i, list := range m.lists { // the cascade's hottest loop
		if left := subtract(list, dead); left != len(list) {
			m.lists[i] = list[:left]
			if left == 0 {
				emptied = append(emptied, m.keys[i])
			}
		}
	}
	return emptied
}

// values returns the number of live values in m.
func (m *mapBuilder) values() int {
	n := 0
	for _, list := range m.lists {
		n += len(list)
	}
	return n
}

// narrowMax is the most candidates a query vertex may have for positions
// in its Cands — the values of all its maps — to fit in two bytes.
const narrowMax = 1 << 16

// narrowFits is the one width rule: a vertex with n candidates is narrow
// when n <= narrowMax. compact applies it to choose a map's arena, and
// Node.Narrow to read it back.
func narrowFits(n int) bool { return n <= narrowMax }

// compact returns the finished map over positions in keys, the final
// candidates of the key vertex, and in the map's own vertex's, whose
// positions pos holds and which number values: the live lists are written
// as positions, in key order, into a new arena of exactly their size — two
// bytes a value for a narrow vertex, four for any other — so what is
// retained is what PhysicalBytes reports. m is left as it was.
func (m *mapBuilder) compact(keys []graph.VertexID, pos posTable, values int) CandMap {
	out := CandMap{offs: make([]uint32, len(keys)+1)}
	narrow := narrowFits(values)
	if narrow {
		out.narrow = make([]uint16, m.values())
	} else {
		out.wide = make([]uint32, m.values())
	}
	end, i := uint32(0), 0
	for p, key := range keys {
		out.offs[p] = end
		if i == len(m.keys) || m.keys[i] != key {
			continue
		}
		list := m.lists[i]
		if len(list) == 0 {
			out.bare = append(out.bare, uint32(p))
		}
		if narrow {
			for _, v := range list {
				out.narrow[end] = uint16(pos[v])
				end++
			}
		} else {
			for _, v := range list {
				out.wide[end] = pos[v]
				end++
			}
		}
		i++
	}
	out.offs[len(keys)] = end
	out.bare = fit(out.bare)
	return out
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

// fit returns s with no spare capacity, copying only if it has some.
func fit[T any](s []T) []T {
	if len(s) == cap(s) {
		return s
	}
	return append(make([]T, 0, len(s)), s...)
}

// binChunk is the number of vertex IDs per bin chunk (32 KiB): large
// enough that per-frontier-key lists amortize to a handful of allocations
// per build, small enough not to waste memory on a one-cluster prefix
// build (a limited Match's first index, a service cache entry's).
const binChunk = 8192

// buildScratch is one worker's private bin (§3.6), and the bin is the
// storage: the list function of a frontier expansion writes each key's
// value list straight into the free tail of the worker's current chunk
// (room), the chunk's length advances past it (claim), and the map keeps
// the list as a view. Chunks are never reset or reused: they hold the
// build's lists until compact has read them. Workers touch only their own
// scratch, so expansion needs no synchronization beyond the work cursor.
type buildScratch struct {
	chunks [][]graph.VertexID // the last one is being filled
}

// room returns the free tail of the current chunk, empty with room for at
// least n values, starting a new chunk when the tail is too short.
func (sc *buildScratch) room(n int) []graph.VertexID {
	if k := len(sc.chunks) - 1; k >= 0 {
		if c := sc.chunks[k]; cap(c)-len(c) >= n {
			return c[len(c):]
		}
	}
	c := make([]graph.VertexID, 0, max(binChunk, n))
	sc.chunks = append(sc.chunks, c)
	return c
}

// claim advances the current chunk past list, which was written at the
// start of the tail room returned, and returns list with no capacity past
// its end — a view that is never nil, empty lists included.
func (sc *buildScratch) claim(list []graph.VertexID) []graph.VertexID {
	k := len(sc.chunks) - 1
	sc.chunks[k] = sc.chunks[k][:len(sc.chunks[k])+len(list)]
	return slices.Clip(list)
}
