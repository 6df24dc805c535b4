package ceci

import (
	"context"
	"errors"
	"math/rand"
	"slices"
	"testing"
	"time"

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

// TestBuildCancelledAnywhere: wherever a deadline lands in a build — the
// expansions, a refinement level, between two levels of a cascade that
// removes thousands of candidates — BuildCtx returns the context's error
// and no index, or the very index an uncancelled build returns; never a
// half-refined one and never neither. The pair is the oracle's lollipop,
// whose one refinement level starts a three-level cascade.
func TestBuildCancelledAnywhere(t *testing.T) {
	data, query := lollipopPair(6000)
	tree, err := order.Preprocess(data, query, order.Options{ForcedRoot: 0, Heuristic: order.BFSOrder})
	if err != nil {
		t.Fatal(err)
	}
	opts := Options{Workers: 2}
	want := Build(data, tree, opts).Dump()
	start := time.Now() // the second build: the first also warms the heap
	Build(data, tree, opts)
	whole := time.Since(start)

	attempt := func(ctx context.Context) (finished bool) {
		ix, err := BuildCtx(ctx, data, tree, opts)
		switch {
		case ix == nil && err == nil:
			t.Fatal("BuildCtx returned neither an index nor an error")
		case ix != nil && err != nil:
			t.Fatalf("BuildCtx returned an index and %v", err)
		case err != nil:
			if !errors.Is(err, context.DeadlineExceeded) {
				t.Fatalf("BuildCtx failed with %v, want the context's error", err)
			}
		case !slices.Equal(ix.Dump(), want):
			t.Fatal("a build that beat its deadline differs from the uncancelled build")
		}
		return ix != nil
	}
	// Deadline 0 has expired before BuildCtx looks and never enters the
	// build, so it is checked but not counted.
	const steps = 32
	cancelled := 0
	for i := 0; i <= steps; i++ {
		ctx, cancel := context.WithTimeout(context.Background(), whole*time.Duration(i)/steps)
		if !attempt(ctx) && i > 0 {
			cancelled++
		}
		cancel()
	}
	// A context that could fire and never does takes the polled path whole.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	if !attempt(ctx) {
		t.Fatal("a build nobody cancelled returned no index")
	}
	t.Logf("uncancelled build %v; %d of the %d deadlines inside it cancelled a build under way", whole, cancelled, steps)
	if cancelled == 0 {
		t.Fatal("no deadline landed inside a build: the sweep checked nothing")
	}
}
