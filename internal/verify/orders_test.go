package verify_test

import (
	"sync"
	"testing"

	ceci "ceci"
	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/verify"
)

// TestDifferentialStaticOrders is the order-independence sweep: any
// tree-consistent matching order must find an embedding *set*
// bit-identical to the default BFS order's. Seed s runs the static
// heuristic order.Heuristics()[1+s%3] against BFS over 2000 seeded pairs
// (reduced under -short), canonicalized exactly like the engine
// differential so symmetry-breaking representatives don't alias as
// diffs. A failing seed replays with:
//
//	go run ./cmd/cecirun -verify -seed <seed>
func TestDifferentialStaticOrders(t *testing.T) {
	seeds := int64(2000)
	if testing.Short() {
		seeds = 250
	}
	const maxEmbeddings = 200000
	checked, skipped := 0, 0
	for seed := int64(1); seed <= seeds; seed++ {
		data, query := gen.RandomPair(seed)
		cons := auto.Compute(query)
		h := order.Heuristics()[1+seed%3]

		base, err := ceciEmbeddings(data, query, &ceci.Options{Workers: 2})
		if err != nil {
			t.Fatalf("seed %d: bfs match: %v", seed, err)
		}
		if len(base) > maxEmbeddings {
			skipped++
			continue
		}
		got, err := ceciEmbeddings(data, query, &ceci.Options{Workers: 2, Order: h})
		if err != nil {
			t.Fatalf("seed %d: %v match: %v", seed, h, err)
		}
		checked++

		want := verify.CanonicalSet(base, cons)
		have := verify.CanonicalSet(got, cons)
		if len(want) != len(have) {
			t.Fatalf("seed %d: %v found %d canonical embeddings, bfs %d\nreproduce: go run ./cmd/cecirun -verify -seed %d",
				seed, h, len(have), len(want), seed)
		}
		for i := range want {
			if want[i] != have[i] {
				t.Fatalf("seed %d: embedding sets diverge at %d: bfs %q vs %v %q\nreproduce: go run ./cmd/cecirun -verify -seed %d",
					seed, i, want[i], h, have[i], seed)
			}
		}
	}
	if checked == 0 {
		t.Fatal("no pairs checked; generator envelope too explosive")
	}
	t.Logf("%d pairs checked against bfs (%d skipped as too large)", checked, skipped)
}

// ceciEmbeddings collects CECI's embeddings under opts; safe under
// concurrent callbacks.
func ceciEmbeddings(data, query *graph.Graph, opts *ceci.Options) ([][]graph.VertexID, error) {
	m, err := ceci.Match(data, query, opts)
	if err != nil {
		return nil, err
	}
	var mu sync.Mutex
	var out [][]graph.VertexID
	m.ForEach(func(emb []graph.VertexID) bool {
		cp := make([]graph.VertexID, len(emb))
		copy(cp, emb)
		mu.Lock()
		out = append(out, cp)
		mu.Unlock()
		return true
	})
	return out, nil
}
