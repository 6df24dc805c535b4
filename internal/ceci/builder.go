package ceci

import (
	"errors"
	"math"

	"ceci/internal/graph"
)

// maxArena is the largest arena the 32-bit offsets column can address. A
// variable only so the overflow test can lower it.
var maxArena int64 = math.MaxUint32

var errArenaOverflow = errors.New("value arena exceeds the 32-bit offsets column")

// mapBuilder is a CandMap under construction, in vertex ids (positions are
// final only once refinement is): sorted keys, the arena, len(keys)+1
// offsets and live, the live length of every key's list. Until compact
// runs, offs[i] is only where key i's list starts: cascade deletion shrinks
// a list in place, or drops a key's entry from the three per-key columns,
// and leaves the hole in the arena for compact to squeeze out.
type mapBuilder struct {
	keys, arena []graph.VertexID
	offs, live  []uint32
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
// sorted — frontiers are expanded in ascending order — and nothing may
// have been deleted yet.
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

// deleteKeys removes every key that is in the ascending set dead (absent
// ones are no-ops), rewriting the three per-key columns once: nothing moves
// below the first dead key, one merge walk covers the stretch the set
// spans, and what lies above the last dead key slides down in one copy.
func (m *mapBuilder) deleteKeys(dead []graph.VertexID) {
	keys, offs, live := m.keys, m.offs, m.live
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
		keys[w], offs[w], live[w] = key, offs[r], live[r]
		w++
	}
	if w == r {
		return
	}
	n := w + copy(keys[w:], keys[r:])
	copy(live[w:], live[r:])
	copy(offs[w:], offs[r:]) // one slot more than keys: compact writes the end offset there
	m.keys, m.offs, m.live = keys[:n], offs[:n+1], live[:n]
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
	offs, arena := m.offs, m.arena // the sweep is the cascade's hottest loop
	for i, n := range m.live {
		if left := uint32(subtract(arena[offs[i]:offs[i]+n], dead)); left != n {
			m.live[i] = left
			if left == 0 {
				emptied = append(emptied, m.keys[i])
			}
		}
	}
	return emptied
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
// positions pos holds and which number values: the live lists slide down
// over the holes as positions — in place for a wide vertex, whose arena
// is then copied once to its final size if it shrank, and into a new
// two-byte arena of exactly that size for a narrow one — so what is
// retained is what PhysicalBytes reports.
func (m *mapBuilder) compact(keys []graph.VertexID, pos posTable, values int) CandMap {
	out := CandMap{offs: make([]uint32, len(keys)+1)}
	narrow := narrowFits(values)
	if narrow {
		var n uint32
		for _, l := range m.live {
			n += l
		}
		out.narrow = make([]uint16, n)
	}
	end, i := uint32(0), 0
	for p, key := range keys {
		out.offs[p] = end
		if i == len(m.keys) || m.keys[i] != key {
			continue
		}
		if m.live[i] == 0 {
			out.bare = append(out.bare, uint32(p))
		}
		if narrow {
			for _, v := range m.list(i) {
				out.narrow[end] = uint16(pos[v])
				end++
			}
		} else {
			for _, v := range m.list(i) { // end never passes the list's start
				m.arena[end] = pos[v]
				end++
			}
		}
		i++
	}
	out.offs[len(keys)] = end
	if !narrow {
		out.wide = fit(m.arena[:end])
	}
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
