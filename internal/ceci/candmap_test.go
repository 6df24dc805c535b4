package ceci

import (
	"maps"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"ceci/internal/graph"
)

// mapOf builds a mapBuilder holding the given (key, values) pairs.
func mapOf(entries ...[]graph.VertexID) *mapBuilder {
	var m mapBuilder
	var sc buildScratch
	m.alloc(len(entries))
	for _, e := range entries {
		m.fill(&sc, e[0], e[1:])
	}
	return &m
}

// fill adds (key, vals) to m the way an expansion does: vals are written
// into the tail of sc's current chunk, and m keeps the written list as a
// view of the chunk.
func (m *mapBuilder) fill(sc *buildScratch, key graph.VertexID, vals []graph.VertexID) {
	m.add(key, sc.claim(append(sc.room(len(vals)), vals...)))
}

// get returns the live value list of key, or nil: the point read the
// tests check a map under construction with (the builder itself only
// walks).
func (m *mapBuilder) get(key graph.VertexID) []graph.VertexID {
	if i := lowerBound(m.keys, key); i < len(m.keys) && m.keys[i] == key {
		return m.lists[i]
	}
	return nil
}

// forEach visits the live (key, values) pairs in ascending key order.
func (m *mapBuilder) forEach(fn func(key graph.VertexID, values []graph.VertexID)) {
	for i, key := range m.keys {
		fn(key, m.lists[i])
	}
}

// positionsOf returns the position table of the candidate column vals.
func positionsOf(vals []graph.VertexID) posTable {
	var t posTable
	return t.fill(vals, int(slices.Max(append([]graph.VertexID{0}, vals...)))+1)
}

// idsAt returns the ids listed under the id key of a finished map keyed
// by positions in keys and valued by positions in vals — nil when key is
// no entry, empty but non-nil for a bare one: the id-level read the tests
// check a finished map with.
func idsAt(m *CandMap, keys, vals []graph.VertexID, key graph.VertexID) []graph.VertexID {
	p := lowerBound(keys, key)
	if p == len(keys) || keys[p] != key {
		return nil
	}
	list := m.AppendAt(nil, uint32(p))
	if _, bare := slices.BinarySearch(m.bare, uint32(p)); len(list) == 0 && !bare {
		return nil
	}
	out := make([]graph.VertexID, 0, len(list))
	for _, q := range list {
		out = append(out, vals[q])
	}
	return out
}

func TestCandMapAppendGet(t *testing.T) {
	keys, vals := []graph.VertexID{2, 3, 5, 9}, []graph.VertexID{10, 20, 25, 30, 40, 50, 60}
	m := mapOf([]graph.VertexID{2, 10, 20}, []graph.VertexID{5, 30}, []graph.VertexID{9, 40, 50, 60}).compact(keys, positionsOf(vals), len(vals))
	if m.Len() != 3 {
		t.Fatalf("len = %d", m.Len())
	}
	if got := m.U16().At(2); !slices.Equal(got, []uint16{3}) {
		t.Fatalf("At(2) = %v, want the position of 30", got)
	}
	if got := idsAt(&m, keys, vals, 9); !slices.Equal(got, []graph.VertexID{40, 50, 60}) {
		t.Fatalf("ids under 9 = %v", got)
	}
	if len(m.U16().At(1)) != 0 || idsAt(&m, keys, vals, 3) != nil {
		t.Fatal("phantom key")
	}
	if got := m.CandidateEdges(); got != 6 {
		t.Fatalf("edges = %d", got)
	}
}

func TestCandMapDelete(t *testing.T) {
	b := mapOf([]graph.VertexID{1, 10}, []graph.VertexID{3, 30}, []graph.VertexID{5, 50})
	b.deleteKeys([]graph.VertexID{3})
	b.deleteKeys([]graph.VertexID{99})         // no-op
	b.deleteKeys([]graph.VertexID{0, 2, 4, 6}) // none present: no-op
	if b.get(3) != nil || b.get(5) == nil {
		t.Fatal("delete failed before compaction")
	}
	keys, vals := []graph.VertexID{1, 5}, []graph.VertexID{10, 50}
	m := b.compact(keys, positionsOf(vals), len(vals))
	if m.Len() != 2 || idsAt(&m, keys, vals, 3) != nil {
		t.Fatal("delete failed")
	}
	if got := idsAt(&m, keys, vals, 5); !slices.Equal(got, []graph.VertexID{50}) {
		t.Fatalf("ids under 5 = %v: wrong entry removed", got)
	}
}

func TestCandMapDeleteValue(t *testing.T) {
	b := mapOf([]graph.VertexID{1, 7, 8}, []graph.VertexID{2, 8}, []graph.VertexID{3, 9})
	emptied := b.deleteValues([]graph.VertexID{8}, nil)
	if len(emptied) != 1 || emptied[0] != 2 {
		t.Fatalf("emptied = %v", emptied)
	}
	if got := b.get(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("get(1) = %v", got)
	}
	// The emptied key remains until the caller deletes it (cascade) — in
	// the finished map too, which is how NTE keys with no value left are
	// stored and dumped.
	if got := b.get(2); got == nil || len(got) != 0 {
		t.Fatalf("get(2) = %v, want empty non-nil entry", got)
	}
	keys, vals := []graph.VertexID{1, 2, 3}, []graph.VertexID{7, 9}
	m := b.compact(keys, positionsOf(vals), len(vals))
	if got := idsAt(&m, keys, vals, 2); m.Len() != 3 || got == nil || len(got) != 0 || !slices.Equal(m.bare, []uint32{1}) {
		t.Fatalf("compacted: %d keys, ids under 2 = %v, bare %v", m.Len(), got, m.bare)
	}
}

func TestCandMapForEachOrder(t *testing.T) {
	space := []graph.VertexID{0, 1, 2, 3, 4}
	m := mapOf([]graph.VertexID{1, 2}, []graph.VertexID{2, 3}, []graph.VertexID{4, 1}).compact(space, positionsOf(space), len(space))
	var keys []uint32
	m.ForEach(func(k uint32, _ []uint32) {
		keys = append(keys, k)
	})
	if !slices.Equal(keys, []uint32{1, 2, 4}) {
		t.Fatalf("ForEach keys %v", keys)
	}
}

// mapModel is the naive side of the mapBuilder comparisons: key -> sorted
// values, deleted from one value and one key at a time.
type mapModel map[graph.VertexID][]graph.VertexID

func (mm mapModel) sortedKeys() []graph.VertexID { return slices.Sorted(maps.Keys(mm)) }

// deleteValues removes every member of dead from every list and returns,
// in key order, the keys that emptied.
func (mm mapModel) deleteValues(dead []graph.VertexID) (emptied []graph.VertexID) {
	for _, key := range mm.sortedKeys() {
		for _, x := range dead {
			if i, found := slices.BinarySearch(mm[key], x); found {
				mm[key] = slices.Delete(mm[key], i, i+1)
				if len(mm[key]) == 0 {
					emptied = append(emptied, key)
				}
			}
		}
	}
	return emptied
}

func (mm mapModel) deleteKeys(dead []graph.VertexID) {
	for _, x := range dead {
		delete(mm, x)
	}
}

// agrees reports whether b's live view — forEach order and lists, get of
// every key below universe — is the model.
func (mm mapModel) agrees(b *mapBuilder, universe graph.VertexID) bool {
	var keys []graph.VertexID
	ok := true
	b.forEach(func(key graph.VertexID, vals []graph.VertexID) {
		keys = append(keys, key)
		ok = ok && slices.Equal(vals, mm[key])
	})
	for key := graph.VertexID(0); key < universe; key++ {
		want, present := mm[key]
		got := b.get(key)
		ok = ok && (got != nil) == present && slices.Equal(got, want)
	}
	return ok && slices.Equal(keys, mm.sortedKeys())
}

// compactsTo reports whether b, compacted over the key space [0,
// universe) and the value space of the model's values, is the model —
// entries, every key's ids, bare keys — with no spare capacity left in any
// column.
func (mm mapModel) compactsTo(b *mapBuilder, universe graph.VertexID) bool {
	keys := make([]graph.VertexID, universe)
	for k := range keys {
		keys[k] = graph.VertexID(k)
	}
	var vals []graph.VertexID
	var edges, bare int64
	for _, list := range mm {
		vals = append(vals, list...)
		edges += int64(len(list))
		if len(list) == 0 {
			bare++
		}
	}
	slices.Sort(vals)
	vals = slices.Compact(vals)
	// Both widths, each a new column: b is left as it was.
	ok := mm.agrees(b, universe)
	for _, width := range []struct {
		values, bytes int
	}{{len(vals), 2}, {narrowMax + 1, 4}} {
		m := b.compact(keys, positionsOf(vals), width.values)
		var entries []graph.VertexID
		m.ForEach(func(p uint32, _ []uint32) { entries = append(entries, keys[p]) })
		ok = ok && slices.Equal(entries, mm.sortedKeys()) && m.CandidateEdges() == edges &&
			len(m.offs) == len(keys)+1 && m.flatBytes() == 4*(int64(len(keys))+1+bare)+int64(width.bytes)*edges &&
			cap(m.offs) == len(m.offs) && cap(m.narrow) == len(m.narrow) && cap(m.wide) == len(m.wide) && cap(m.bare) == len(m.bare)
		for _, key := range keys {
			want, present := mm[key]
			got := idsAt(&m, keys, vals, key)
			ok = ok && (got != nil) == present && slices.Equal(got, want) && len(m.AppendAt(nil, key)) == len(want)
		}
		ok = ok && mm.agrees(b, universe)
	}
	return ok
}

// TestMapBuilderMatchesModel drives a mapBuilder and a naive
// map[key][]value through the same random sequence — ascending appends,
// then deletions of sorted key sets and value sets interleaved with reads —
// and requires the builder's live view to equal the model after every step
// and the compacted CandMap to equal it at the end, with no spare capacity
// left in any column. The sets are drawn to reach every path of the set
// forms: one member, members that are absent, the whole universe, a set
// entirely below or above every list of the map's middle band (lists are
// not entered), and — the walk's two extremes — a set a small fraction of
// a long list's length and a set many times a short list's.
func TestMapBuilderMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		// Values below 32 and from 96 up occur only in every fourth key's
		// list, so sets drawn there lie outside the other lists' ranges.
		const universe, bandLo, bandHi = 128, 32, 96
		model := mapModel{}
		var b mapBuilder
		var sc buildScratch
		// One map in eight is never sized or filled, like the root's TE.
		filled := rng.Intn(8) > 0
		if filled {
			b.alloc(universe)
		}
		for key := graph.VertexID(0); filled && key < universe; key++ {
			if rng.Intn(3) == 0 {
				continue
			}
			lo, hi := graph.VertexID(bandLo), graph.VertexID(bandHi)
			if key%4 == 0 {
				lo, hi = 0, universe
			}
			// Long dense lists, short sparse ones, and the odd empty one.
			keep := []int{2, 3, 16, 40}[rng.Intn(4)]
			var vals []graph.VertexID
			for v := lo; v < hi; v++ {
				if rng.Intn(keep) == 0 || keep == 2 {
					vals = append(vals, v)
				}
			}
			b.fill(&sc, key, vals)
			model[key] = vals
		}
		if !model.agrees(&b, universe) {
			t.Logf("seed %d: builder and model disagree after the appends", seed)
			return false
		}
		for step := 0; step < 24; step++ {
			var dead []graph.VertexID
			shape := []string{"one", "few", "half", "all", "below", "above"}[rng.Intn(6)]
			switch shape {
			case "one":
				dead = []graph.VertexID{graph.VertexID(rng.Intn(universe + 8))}
			case "few":
				for v := graph.VertexID(0); v < universe+8; v++ { // some past the universe: absent
					if rng.Intn(32) == 0 {
						dead = append(dead, v)
					}
				}
			case "half":
				for v := graph.VertexID(0); v < universe; v++ {
					if rng.Intn(2) == 0 {
						dead = append(dead, v)
					}
				}
			case "all":
				for v := graph.VertexID(0); v < universe; v++ {
					dead = append(dead, v)
				}
			case "below":
				for v := graph.VertexID(0); v < bandLo; v++ {
					if rng.Intn(3) > 0 {
						dead = append(dead, v)
					}
				}
			case "above":
				for v := graph.VertexID(bandHi); v < universe; v++ {
					if rng.Intn(3) > 0 {
						dead = append(dead, v)
					}
				}
			}
			if rng.Intn(3) == 0 {
				b.deleteKeys(dead)
				model.deleteKeys(dead)
			} else {
				want := model.deleteValues(dead)
				// emptied is appended to: what was there stays in front.
				got := b.deleteValues(dead, []graph.VertexID{universe})
				if got[0] != universe || !slices.Equal(got[1:], want) {
					t.Logf("seed %d: deleteValues(%v) emptied %v, want %v", seed, dead, got[1:], want)
					return false
				}
			}
			if !model.agrees(&b, universe) {
				t.Logf("seed %d: builder and model disagree after deleting the %q set %v", seed, shape, dead)
				return false
			}
		}
		if !model.compactsTo(&b, universe) {
			t.Logf("seed %d: compacted map differs from the model", seed)
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// FuzzMapBuilderDelete reads its input as a filled mapBuilder and a
// sequence of set deletions, and holds the builder to mapModel after every
// step and after compact. The first byte's low bit leaves the map never
// sized (the root's TE) and the rest of it says how many keys follow; a
// key is four bytes — the gap to the previous key, then its list as (first
// value, stride, length) — and so is a deletion: values or keys, then the
// set as (first member, stride, length), so one byte flip moves a set
// below a list, stretches it over the universe or thins it to one member.
// The committed corpus (testdata/fuzz/FuzzMapBuilderDelete) has one file
// per case the set forms distinguish, named for it.
func FuzzMapBuilderDelete(f *testing.F) {
	f.Fuzz(func(t *testing.T, in []byte) {
		next := func() int {
			if len(in) == 0 {
				return 0
			}
			x := in[0]
			in = in[1:]
			return int(x)
		}
		run := func(first, stride, length int) []graph.VertexID {
			set := make([]graph.VertexID, 0, length)
			for i := 0; i < length; i++ {
				set = append(set, graph.VertexID(first+i*max(stride, 1)))
			}
			return set
		}
		head := next()
		model := mapModel{}
		var b mapBuilder
		var sc buildScratch
		if head&1 == 0 {
			nkeys := head >> 1
			b.alloc(nkeys)
			key := -1
			for i := 0; i < nkeys && len(in) > 0; i++ {
				key += 1 + next()%4
				vals := run(next(), next()%8, next()%64)
				b.fill(&sc, graph.VertexID(key), vals)
				model[graph.VertexID(key)] = vals
			}
		}
		universe := graph.VertexID(2) // one past the last key, and an absent one
		if n := len(b.keys); n > 0 {
			universe += b.keys[n-1]
		}
		if !model.agrees(&b, universe) {
			t.Fatal("builder and model disagree after the appends")
		}
		for len(in) > 0 {
			keys := next()&1 == 1
			dead := run(next(), next()%8, next())
			if keys {
				b.deleteKeys(dead)
				model.deleteKeys(dead)
			} else if got, want := b.deleteValues(dead, nil), model.deleteValues(dead); !slices.Equal(got, want) {
				t.Fatalf("deleteValues(%v) emptied %v, want %v", dead, got, want)
			}
			if !model.agrees(&b, universe) {
				t.Fatalf("builder and model disagree after deleting %v (keys: %v)", dead, keys)
			}
		}
		if !model.compactsTo(&b, universe) {
			t.Fatal("compacted map differs from the model")
		}
	})
}

func TestCandMapValueUnion(t *testing.T) {
	m := mapOf([]graph.VertexID{1, 3, 5}, []graph.VertexID{2, 5, 7}, []graph.VertexID{4, 0, 70})
	want := []graph.VertexID{0, 3, 5, 7, 70}
	// 71 vertices: the bitmap path; 71<<10: six values are few enough to sort.
	for _, n := range []int{71, 71 << 10} {
		b := &builder{ix: &Index{Data: graph.NewBuilder(n).MustBuild()}}
		// Twice: the mark bitmap must come back empty for the next union.
		for round := 0; round < 2; round++ {
			if union := b.valueUnion(m); !slices.Equal(union, want) {
				t.Fatalf("|V|=%d round %d: union = %v, want %v", n, round, union, want)
			}
		}
		if (b.marks != nil) != (n == 71) {
			t.Fatalf("|V|=%d: bitmap allocated = %v", n, b.marks != nil)
		}
	}
}

func TestSaturatingArithmetic(t *testing.T) {
	if got := satAdd(CardSaturation, 1); got != CardSaturation {
		t.Fatalf("satAdd overflowed: %d", got)
	}
	if got := satMul(CardSaturation/2, 3); got != CardSaturation {
		t.Fatalf("satMul overflowed: %d", got)
	}
	if satMul(0, 5) != 0 || satMul(5, 0) != 0 {
		t.Fatal("satMul zero broken")
	}
	if satAdd(2, 3) != 5 || satMul(2, 3) != 6 {
		t.Fatal("basic arithmetic broken")
	}
}
