package ceci

import (
	"slices"
	"testing"

	"ceci/internal/graph"
)

func TestCandMapAppendGet(t *testing.T) {
	var m CandMap
	m.AppendKey(2, []graph.VertexID{10, 20})
	m.AppendKey(5, []graph.VertexID{30})
	m.AppendKey(9, []graph.VertexID{40, 50, 60})
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

func TestCandMapOutOfOrderInsert(t *testing.T) {
	var m CandMap
	m.AppendKey(5, []graph.VertexID{1})
	m.AppendKey(2, []graph.VertexID{2}) // triggers the insert path
	m.AppendKey(5, []graph.VertexID{3}) // overwrite
	keys := m.Keys()
	if len(keys) != 2 || keys[0] != 2 || keys[1] != 5 {
		t.Fatalf("keys = %v", keys)
	}
	if got := m.Get(5); len(got) != 1 || got[0] != 3 {
		t.Fatalf("overwrite failed: %v", got)
	}
}

func TestCandMapDelete(t *testing.T) {
	var m CandMap
	for _, k := range []graph.VertexID{1, 3, 5} {
		m.AppendKey(k, []graph.VertexID{k * 10})
	}
	m.Delete(3)
	m.Delete(99) // no-op
	if m.Len() != 2 || m.Get(3) != nil {
		t.Fatal("delete failed")
	}
	if got := m.Get(5); got == nil {
		t.Fatal("wrong entry removed")
	}
}

func TestCandMapDeleteValue(t *testing.T) {
	var m CandMap
	m.AppendKey(1, []graph.VertexID{7, 8})
	m.AppendKey(2, []graph.VertexID{8})
	m.AppendKey(3, []graph.VertexID{9})
	emptied := m.DeleteValue(8, nil)
	if len(emptied) != 1 || emptied[0] != 2 {
		t.Fatalf("emptied = %v", emptied)
	}
	if got := m.Get(1); len(got) != 1 || got[0] != 7 {
		t.Fatalf("Get(1) = %v", got)
	}
	// The emptied key remains until the caller deletes it (cascade).
	if got := m.Get(2); got == nil || len(got) != 0 {
		t.Fatalf("Get(2) = %v, want empty non-nil entry", got)
	}
}

func TestCandMapForEachOrder(t *testing.T) {
	var m CandMap
	m.AppendKey(4, []graph.VertexID{1})
	m.AppendKey(1, []graph.VertexID{2})
	m.AppendKey(2, []graph.VertexID{3})
	var keys []graph.VertexID
	m.ForEach(func(k graph.VertexID, _ []graph.VertexID) {
		keys = append(keys, k)
	})
	for i := 1; i < len(keys); i++ {
		if keys[i-1] >= keys[i] {
			t.Fatalf("ForEach not in key order: %v", keys)
		}
	}
}

func TestCandMapValueUnion(t *testing.T) {
	var m CandMap
	m.AppendKey(1, []graph.VertexID{3, 5})
	m.AppendKey(2, []graph.VertexID{5, 7})
	m.AppendKey(4, []graph.VertexID{0, 70})
	want := []graph.VertexID{0, 3, 5, 7, 70}
	// 71 vertices: the bitmap path; 71<<10: six values are few enough to sort.
	for _, n := range []int{71, 71 << 10} {
		ix := &Index{Data: graph.NewBuilder(n).MustBuild()}
		// Twice: the mark bitmap must come back empty for the next union.
		for round := 0; round < 2; round++ {
			if union := ix.valueUnion(&m); !slices.Equal(union, want) {
				t.Fatalf("|V|=%d round %d: union = %v, want %v", n, round, union, want)
			}
		}
		if (ix.marks != nil) != (n == 71) {
			t.Fatalf("|V|=%d: bitmap allocated = %v", n, ix.marks != nil)
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
