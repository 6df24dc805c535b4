package ceci

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// TestUnsortedPivots: Options.Pivots passed shuffled (and with
// duplicates) must produce the same index as the sorted list, because
// Build normalizes the slice before the root candidates are installed.
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
		if !slices.Equal(got.Pivots(), want.Pivots()) {
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

// TestArenaOverflowIsAnError: a TE or NTE structure whose values outgrow
// the 32-bit offsets column fails the build with an error naming it —
// there is no second, wider layout to fall back to.
func TestArenaOverflowIsAnError(t *testing.T) {
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	defer func(limit int64) { maxArena = limit }(maxArena)
	maxArena = 2
	ix, err := BuildCtx(context.Background(), data, tree, Options{})
	if ix != nil || !errors.Is(err, errArenaOverflow) {
		t.Fatalf("BuildCtx = %v, %v; want nil, %v", ix, err, errArenaOverflow)
	}
	if Build(data, tree, Options{}) != nil {
		t.Fatal("Build returned an index BuildCtx refused")
	}
}
