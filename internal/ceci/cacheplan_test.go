package ceci

import (
	"math/rand"
	"testing"

	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// TestCachePlanVolatilitySplit re-derives the stable/volatile split from
// first principles for a spread of query shapes and checks the built plan
// against it: the volatile input is exactly the one keyed by the
// predecessor in the matching order, and the cache only engages when at
// least two inputs are stable.
func TestCachePlanVolatilitySplit(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	queries := []*graph.Graph{gen.QG1(), gen.QG2(), gen.QG3(), gen.QG4()}
	for trial := 0; trial < 20; trial++ {
		data := gen.Kronecker(7, 6+rng.Intn(4), 1)
		q := queries[trial%len(queries)]
		tree, err := order.Preprocess(data, q, order.DefaultOptions())
		if err != nil {
			continue
		}
		ix := Build(data, tree, Options{})
		if ix.ntePlan == nil {
			t.Fatal("built index has no cache plan")
		}
		for i := 1; i < len(tree.Order); i++ {
			u, prev := tree.Order[i], tree.Order[i-1]
			p := ix.ntePlan[u]
			wantVolBase := graph.VertexID(tree.Parent[u]) == prev
			if p.volBase != wantVolBase {
				t.Fatalf("trial %d u=%d: volBase=%v want %v", trial, u, p.volBase, wantVolBase)
			}
			wantVolNTE := -1
			for j, un := range tree.NTEParents[u] {
				if un == prev {
					wantVolNTE = j
					break
				}
			}
			if p.volNTE != wantVolNTE {
				t.Fatalf("trial %d u=%d: volNTE=%d want %d", trial, u, p.volNTE, wantVolNTE)
			}
			stable := 1 + len(tree.NTEParents[u])
			if wantVolBase {
				stable--
			}
			if wantVolNTE >= 0 {
				stable--
			}
			wantUse := len(tree.NTEParents[u]) > 0 && stable >= 2
			if p.use != wantUse {
				t.Fatalf("trial %d u=%d: use=%v want %v (stable=%d, nte=%d)",
					trial, u, p.use, wantUse, stable, len(tree.NTEParents[u]))
			}
		}
	}
}

// TestCachePlanFiresOnClique: the 4-clique's BFS star tree gives the
// deepest vertex a stable TE base (keyed by the root) plus one stable
// NTE list — the configuration the sibling-loop cache exists for. Guard
// against an orderer change silently turning the cache into dead code.
func TestCachePlanFiresOnClique(t *testing.T) {
	data := gen.Kronecker(8, 8, 1)
	tree, err := order.Preprocess(data, gen.QG3(), order.DefaultOptions())
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ix := Build(data, tree, Options{})
	used := false
	for _, p := range ix.ntePlan {
		used = used || p.use
	}
	if !used {
		t.Fatal("no vertex uses the stable-intersection cache on a 4-clique query")
	}
}

// TestStableCacheEquivalence: enumerating through the stable-intersection
// cache must yield candidate-for-candidate identical results to the
// direct k-way path (forced by a plan that caches nowhere). Covers hit, miss, and
// cached-empty transitions across random data/query pairs.
func TestStableCacheEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	checked := 0
	queries := []*graph.Graph{gen.QG1(), gen.QG2(), gen.QG3(), gen.QG4()}
	for trial := 0; trial < 40; trial++ {
		data := gen.Kronecker(7, 5+rng.Intn(5), 1)
		query := queries[trial%len(queries)]
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			continue
		}
		ix := Build(data, tree, Options{})
		planned, direct := ix.ntePlan, make([]cachePlan, len(ix.ntePlan))

		// Walk random prefixes of the matching order, comparing the two
		// paths at every depth. Scratches are per-depth (as in the real
		// searcher) and persist across reps, so later reps exercise
		// misses against stale keys; the second pass over each prefix
		// re-asks every depth with unchanged assignments, exercising
		// pure cache hits.
		scCached := make([]MatchScratch, tree.NumVertices())
		scDirect := make([]MatchScratch, tree.NumVertices())
		for rep := 0; rep < 20; rep++ {
			m := make([]graph.VertexID, tree.NumVertices())
			root := tree.Order[0]
			roots := ix.Nodes[root].Cands
			if len(roots) == 0 {
				break
			}
			m[root] = roots[rng.Intn(len(roots))]
			depth := len(tree.Order)
			for pass := 0; pass < 2; pass++ {
				for i := 1; i < depth; i++ {
					u := tree.Order[i]
					ix.ntePlan = planned
					got := append([]graph.VertexID(nil), ix.CandidatesFor(u, m, &scCached[i])...)
					ix.ntePlan = direct
					want := append([]graph.VertexID(nil), ix.CandidatesFor(u, m, &scDirect[i])...)
					if len(got) != len(want) {
						t.Fatalf("trial %d rep %d pass %d u=%d: cached %d candidates, direct %d", trial, rep, pass, u, len(got), len(want))
					}
					for k := range got {
						if got[k] != want[k] {
							t.Fatalf("trial %d rep %d pass %d u=%d: candidate %d differs: %d vs %d", trial, rep, pass, u, k, got[k], want[k])
						}
					}
					if planned[u].use {
						checked++
					}
					if len(got) == 0 {
						depth = i
						break
					}
					if pass == 0 {
						m[u] = got[rng.Intn(len(got))]
					}
				}
			}
		}
		ix.ntePlan = planned
	}
	if checked == 0 {
		t.Fatal("no comparison ever exercised a cache-enabled vertex; fixtures too small")
	}
}
