package verify_test

import (
	"testing"

	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/verify"
)

// TestDifferentialMetamorphicInvariants runs the full invariant battery —
// permutation, label renaming, edge-deletion monotonicity, Options
// stability (workers, ST/CGD/FGD, edge verification, serialized-index
// round-trip), limited matching, automorphism accounting — on 40 seeded
// pairs.
func TestDifferentialMetamorphicInvariants(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		data, query := gen.RandomPair(seed)
		if vs := verify.CheckInvariants(data, query, seed, verify.Options{Workers: 2}); len(vs) > 0 {
			for _, v := range vs {
				t.Errorf("seed %d: %s", seed, v)
			}
			t.Fatalf("seed %d: %d invariant violations (data %v, query %v)",
				seed, len(vs), data, query)
		}
	}
}

// TestDifferentialMetamorphicFig1 anchors the invariants on the paper's
// worked example, whose query has no non-trivial automorphisms.
func TestDifferentialMetamorphicFig1(t *testing.T) {
	if vs := verify.CheckInvariants(gen.Fig1Data(), gen.Fig1Query(), 1, verify.Options{Workers: 2}); len(vs) > 0 {
		t.Fatalf("Fig.1 violations: %v", vs)
	}
}

// TestCanonicalSetFoldsAutomorphisms: a triangle query on a triangle data
// graph has 6 automorphic images but one canonical embedding.
func TestCanonicalSetFoldsAutomorphisms(t *testing.T) {
	data := gen.QG1()
	query := gen.QG1()
	rep := verify.CheckPair(data, query, verify.Options{Workers: 1})
	if !rep.OK() {
		t.Fatalf("triangle-on-triangle disagreement:\n%s", rep)
	}
	if rep.Embeddings != 1 {
		t.Fatalf("canonical embeddings = %d, want 1", rep.Embeddings)
	}
}

// TestCanonicalEmbeddingOrbitFold: all images of one orbit must fold to
// the identical canonical key.
func TestCanonicalEmbeddingOrbitFold(t *testing.T) {
	// Path query B-A-B: the two B endpoints are an equivalence class.
	b := graph.NewBuilder(3)
	b.SetLabel(0, 1) // B
	b.SetLabel(1, 0) // A
	b.SetLabel(2, 1) // B
	b.AddEdge(0, 1)
	b.AddEdge(1, 2)
	query := b.MustBuild()

	cons := auto.Compute(query)
	k1 := verify.CanonicalEmbedding([]graph.VertexID{4, 2, 9}, cons)
	k2 := verify.CanonicalEmbedding([]graph.VertexID{9, 2, 4}, cons)
	if k1 != k2 {
		t.Fatalf("orbit images canonicalize differently: %q vs %q", k1, k2)
	}
	set := verify.CanonicalSet([][]graph.VertexID{{4, 2, 9}, {9, 2, 4}}, cons)
	if len(set) != 1 {
		t.Fatalf("orbit not deduplicated: %v", set)
	}
}
