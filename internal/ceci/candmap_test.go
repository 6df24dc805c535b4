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
func mapOf(t *testing.T, entries ...[]graph.VertexID) *mapBuilder {
	t.Helper()
	var m mapBuilder
	m.alloc(len(entries), 0)
	for _, e := range entries {
		if err := m.append(e[0], e[1:]); err != nil {
			t.Fatal(err)
		}
	}
	return &m
}

func TestCandMapAppendGet(t *testing.T) {
	m := mapOf(t, []graph.VertexID{2, 10, 20}, []graph.VertexID{5, 30}, []graph.VertexID{9, 40, 50, 60}).compact()
	if m.Len() != 3 {
		t.Fatalf("len = %d", m.Len())
	}
	if got := m.Get(5); len(got) != 1 || got[0] != 30 {
		t.Fatalf("Get(5) = %v", got)
	}
	if m.Get(3) != nil {
		t.Fatal("phantom key")
	}
	if got := m.CandidateEdges(); got != 6 {
		t.Fatalf("edges = %d", got)
	}
}

func TestCandMapDelete(t *testing.T) {
	b := mapOf(t, []graph.VertexID{1, 10}, []graph.VertexID{3, 30}, []graph.VertexID{5, 50})
	b.deleteKey(3)
	b.deleteKey(99) // no-op
	if b.get(3) != nil || b.get(5) == nil {
		t.Fatal("delete failed before compaction")
	}
	m := b.compact()
	if m.Len() != 2 || m.Get(3) != nil {
		t.Fatal("delete failed")
	}
	if got := m.Get(5); !slices.Equal(got, []graph.VertexID{50}) {
		t.Fatalf("Get(5) = %v: wrong entry removed", got)
	}
}

func TestCandMapDeleteValue(t *testing.T) {
	b := mapOf(t, []graph.VertexID{1, 7, 8}, []graph.VertexID{2, 8}, []graph.VertexID{3, 9})
	emptied := b.deleteValue(8, nil)
	if len(emptied) != 1 || emptied[0] != 2 {
		t.Fatalf("emptied = %v", emptied)
	}
	if got := b.get(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("get(1) = %v", got)
	}
	// The emptied key remains until the caller deletes it (cascade) — in
	// the finished map too, which is how NTE keys with no value left are
	// stored and serialized.
	if got := b.get(2); got == nil || len(got) != 0 {
		t.Fatalf("get(2) = %v, want empty non-nil entry", got)
	}
	m := b.compact()
	if got := m.Get(2); m.Len() != 3 || got == nil || len(got) != 0 {
		t.Fatalf("compacted: %d keys, Get(2) = %v", m.Len(), got)
	}
}

func TestCandMapForEachOrder(t *testing.T) {
	m := mapOf(t, []graph.VertexID{1, 2}, []graph.VertexID{2, 3}, []graph.VertexID{4, 1}).compact()
	var keys []graph.VertexID
	m.ForEach(func(k graph.VertexID, _ []graph.VertexID) {
		keys = append(keys, k)
	})
	if !slices.Equal(keys, []graph.VertexID{1, 2, 4}) || !slices.Equal(keys, m.Keys()) {
		t.Fatalf("ForEach keys %v, Keys %v", keys, m.Keys())
	}
}

// TestMapBuilderMatchesModel drives a mapBuilder and a naive
// map[key][]value through the same random sequence — ascending appends,
// then key and value deletions interleaved with reads — and requires the
// builder's live view to equal the model after every step and the
// compacted CandMap to equal it at the end, with no spare capacity left
// in any column.
func TestMapBuilderMatchesModel(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const universe = 24
		model := map[graph.VertexID][]graph.VertexID{}
		var b mapBuilder
		// One map in eight is never sized or filled, like the root's TE.
		filled := rng.Intn(8) > 0
		if filled {
			b.alloc(universe, rng.Intn(64))
		}
		for key := graph.VertexID(0); filled && key < universe; key++ {
			if rng.Intn(3) == 0 {
				continue
			}
			var vals []graph.VertexID
			for v := graph.VertexID(0); v < universe; v++ {
				if rng.Intn(4) == 0 {
					vals = append(vals, v)
				}
			}
			if err := b.append(key, vals); err != nil {
				t.Log(err)
				return false
			}
			model[key] = slices.Clone(vals)
		}
		agree := func(step string) bool {
			var keys []graph.VertexID
			ok := true
			b.forEach(func(key graph.VertexID, vals []graph.VertexID) {
				keys = append(keys, key)
				ok = ok && slices.Equal(vals, model[key])
			})
			for key := graph.VertexID(0); key < universe; key++ {
				want, present := model[key]
				got := b.get(key)
				ok = ok && (got != nil) == present && slices.Equal(got, want)
			}
			if !ok || !slices.Equal(keys, slices.Sorted(maps.Keys(model))) {
				t.Logf("seed %d: builder and model disagree after %s", seed, step)
				return false
			}
			return true
		}
		if !agree("appends") {
			return false
		}
		for step := 0; step < 40; step++ {
			x := graph.VertexID(rng.Intn(universe))
			if rng.Intn(2) == 0 {
				b.deleteKey(x)
				delete(model, x)
			} else {
				var want []graph.VertexID
				for _, key := range slices.Sorted(maps.Keys(model)) {
					if i, found := slices.BinarySearch(model[key], x); found {
						model[key] = slices.Delete(model[key], i, i+1)
						if len(model[key]) == 0 {
							want = append(want, key)
						}
					}
				}
				if got := b.deleteValue(x, nil); !slices.Equal(got, want) {
					t.Logf("seed %d: deleteValue(%d) emptied %v, want %v", seed, x, got, want)
					return false
				}
			}
			if !agree("a deletion") {
				return false
			}
		}
		m := b.compact()
		var edges int64
		for _, vals := range model {
			edges += int64(len(vals))
		}
		ok := slices.Equal(m.Keys(), slices.Sorted(maps.Keys(model))) && m.CandidateEdges() == edges &&
			len(m.offs) == len(m.keys)+1 && m.flatBytes() == 4*int64(2*len(model)+1)+4*edges &&
			cap(m.keys) == len(m.keys) && cap(m.offs) == len(m.offs) && cap(m.arena) == len(m.arena)
		m.ForEach(func(key graph.VertexID, vals []graph.VertexID) {
			ok = ok && slices.Equal(vals, model[key]) && slices.Equal(m.Get(key), vals)
		})
		if !ok {
			t.Logf("seed %d: compacted map differs from the model", seed)
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// TestGetNearEqualsGet: a finger is only a hint. From any starting value
// — in range, negative, far past the end — and along any key sequence —
// ascending like a sibling loop, descending, repeated, absent, past the
// last key — GetNear returns exactly what Get returns, the same view of
// the arena (nil for an absent key, empty but non-nil for a present key
// with no values left), and leaves a finger the next call can use.
func TestGetNearEqualsGet(t *testing.T) {
	f := func(seed int64, start int) bool {
		rng := rand.New(rand.NewSource(seed))
		universe := 1 + rng.Intn(60)
		var b mapBuilder
		b.alloc(universe, 0)
		for key := 0; key < universe; key++ {
			if rng.Intn(3) == 0 {
				continue
			}
			vals := make([]graph.VertexID, rng.Intn(4)) // some keys keep no value
			for i := range vals {
				vals[i] = graph.VertexID(10*key + i)
			}
			if err := b.append(graph.VertexID(key), vals); err != nil {
				t.Log(err)
				return false
			}
		}
		m := b.compact()
		var keys []graph.VertexID
		switch rng.Intn(4) {
		case 0: // a sibling loop: ascending, with gaps
			for k := 0; k < universe+3; k += 1 + rng.Intn(3) {
				keys = append(keys, graph.VertexID(k))
			}
		case 1: // descending
			for k := universe + 2; k >= 0; k -= 1 + rng.Intn(3) {
				keys = append(keys, graph.VertexID(k))
			}
		case 2: // each key asked several times in a row
			for k := 0; k < universe+3; k += 1 + rng.Intn(4) {
				keys = append(keys, graph.VertexID(k), graph.VertexID(k), graph.VertexID(k))
			}
		default: // no order at all, half of them past the last key
			for i := 0; i < 40; i++ {
				keys = append(keys, graph.VertexID(rng.Intn(2*universe)))
			}
		}
		finger := start // almost surely far out of range, on either side
		if rng.Intn(2) == 0 {
			finger = start % (2 * universe) // near or inside the key range
		}
		for _, key := range keys {
			got, want := m.GetNear(&finger, key), m.Get(key)
			if (got == nil) != (want == nil) || len(got) != len(want) ||
				(len(want) > 0 && &got[0] != &want[0]) {
				t.Logf("seed %d start %d: GetNear(%d) = %v, Get = %v (finger now %d, keys %v)",
					seed, start, key, got, want, finger, m.Keys())
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestCandMapValueUnion(t *testing.T) {
	m := mapOf(t, []graph.VertexID{1, 3, 5}, []graph.VertexID{2, 5, 7}, []graph.VertexID{4, 0, 70})
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
