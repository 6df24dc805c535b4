package ceci

import (
	"math/rand"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

func eqVals(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// assertSameCandMap checks that a mutable and a frozen CandMap expose the
// same logical content through every read accessor.
func assertSameCandMap(t *testing.T, u int, kind string, mut, fro *CandMap) {
	t.Helper()
	if !eqVals(mut.Keys(), fro.Keys()) {
		t.Fatalf("u%d %s: keys differ: %v vs %v", u, kind, mut.Keys(), fro.Keys())
	}
	for _, k := range mut.Keys() {
		if !eqVals(mut.Get(k), fro.Get(k)) {
			t.Fatalf("u%d %s[%d]: values differ: %v vs %v", u, kind, k, mut.Get(k), fro.Get(k))
		}
	}
	if mut.Get(graph.VertexID(1<<31)) != nil || fro.Get(graph.VertexID(1<<31)) != nil {
		t.Fatalf("u%d %s: Get(absent) not nil", u, kind)
	}
	if mut.CandidateEdges() != fro.CandidateEdges() {
		t.Fatalf("u%d %s: CandidateEdges %d vs %d", u, kind, mut.CandidateEdges(), fro.CandidateEdges())
	}
	i := 0
	fro.ForEach(func(k graph.VertexID, vals []graph.VertexID) {
		if k != mut.Keys()[i] || !eqVals(vals, mut.Get(k)) {
			t.Fatalf("u%d %s: ForEach diverges at key %d", u, kind, k)
		}
		i++
	})
}

// TestFrozenEquivalence builds the same index twice — once left mutable
// via skipFreeze, once frozen into the flat arena form — over randomized
// (data, query) pairs and asserts every read accessor agrees: keys,
// values, unions, candidate-edge counts, and cardinalities.
func TestFrozenEquivalence(t *testing.T) {
	for seed := int64(1); seed <= 25; seed++ {
		data, query := gen.RandomPair(seed)
		tree, err := order.Preprocess(data, query, order.Options{})
		if err != nil {
			t.Fatalf("seed %d: Preprocess: %v", seed, err)
		}
		mut := Build(data, tree, Options{skipFreeze: true})
		fro := Build(data, tree, Options{})
		if mut.Frozen() {
			t.Fatalf("seed %d: skipFreeze build is frozen", seed)
		}
		if !fro.Frozen() {
			t.Fatalf("seed %d: default build is not frozen", seed)
		}
		for u := range mut.Nodes {
			nm, nf := &mut.Nodes[u], &fro.Nodes[u]
			if !eqVals(nm.Cands, nf.Cands) {
				t.Fatalf("seed %d u%d: cands differ", seed, u)
			}
			for _, v := range nm.Cands {
				if nm.CardOf(v) != nf.CardOf(v) {
					t.Fatalf("seed %d u%d: card[%d] %d vs %d",
						seed, u, v, nm.CardOf(v), nf.CardOf(v))
				}
			}
			if nf.Card != nil {
				t.Fatalf("seed %d u%d: frozen node still holds the Card map", seed, u)
			}
			assertSameCandMap(t, u, "TE", &nm.TE, &nf.TE)
			for j := range nm.NTE {
				assertSameCandMap(t, u, "NTE", &nm.NTE[j], &nf.NTE[j])
			}
		}
		if mut.CandidateEdges() != fro.CandidateEdges() {
			t.Fatalf("seed %d: CandidateEdges differ", seed)
		}
		if mut.UniqueCandidateEdges() != fro.UniqueCandidateEdges() {
			t.Fatalf("seed %d: UniqueCandidateEdges differ", seed)
		}
		if mut.TotalCardinality() != fro.TotalCardinality() {
			t.Fatalf("seed %d: TotalCardinality differ", seed)
		}
	}
}

// TestFrozenMutationPanics pins the immutability contract: structural
// mutation of a frozen CandMap must panic rather than corrupt the arena.
func TestFrozenMutationPanics(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ix := Build(data, tree, Options{})
	var m *CandMap
	for u := range ix.Nodes {
		if ix.Nodes[u].TE.Len() > 0 {
			m = &ix.Nodes[u].TE
			break
		}
	}
	if m == nil {
		t.Fatal("no non-empty TE map")
	}
	for name, mutate := range map[string]func(){
		"AppendKey":   func() { m.AppendKey(1<<30, []graph.VertexID{1}) },
		"Delete":      func() { m.Delete(m.Keys()[0]) },
		"DeleteValue": func() { m.DeleteValue(1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s on frozen map did not panic", name)
				}
			}()
			mutate()
		}()
	}
}

// TestUnsortedPivots is the regression test for the O(n) middle-insert
// path: Options.Pivots passed shuffled (and with duplicates) must produce
// the same index as the sorted list, because Build normalizes the slice
// before the root candidates are installed.
func TestUnsortedPivots(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for seed := int64(1); seed <= 10; seed++ {
		data, query := gen.RandomPair(seed)
		tree, err := order.Preprocess(data, query, order.Options{})
		if err != nil {
			t.Fatalf("seed %d: Preprocess: %v", seed, err)
		}
		base := Build(data, tree, Options{})
		pivots := base.Pivots()
		if len(pivots) < 2 {
			continue
		}
		shuffled := make([]graph.VertexID, len(pivots))
		copy(shuffled, pivots)
		rng.Shuffle(len(shuffled), func(i, j int) {
			shuffled[i], shuffled[j] = shuffled[j], shuffled[i]
		})
		shuffled = append(shuffled, shuffled[0]) // a duplicate, too
		got := Build(data, tree, Options{Pivots: shuffled})
		want := Build(data, tree, Options{Pivots: pivots})
		if !eqVals(got.Pivots(), want.Pivots()) {
			t.Fatalf("seed %d: pivots differ: %v vs %v", seed, got.Pivots(), want.Pivots())
		}
		if got.CandidateEdges() != want.CandidateEdges() {
			t.Fatalf("seed %d: CandidateEdges %d vs %d",
				seed, got.CandidateEdges(), want.CandidateEdges())
		}
		if got.TotalCardinality() != want.TotalCardinality() {
			t.Fatalf("seed %d: TotalCardinality %d vs %d",
				seed, got.TotalCardinality(), want.TotalCardinality())
		}
		// The caller's slice must not be reordered in place.
		if shuffled[len(shuffled)-1] != shuffled[0] {
			t.Fatalf("seed %d: Build mutated the caller's pivot slice", seed)
		}
	}
}
