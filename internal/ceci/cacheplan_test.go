package ceci

import (
	"math/rand"
	"slices"
	"testing"

	"ceci/internal/bitset"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/setops"
)

// TestCachePlanVolatilitySplit re-derives the stable/volatile split from
// first principles for a spread of query shapes and checks the built plan
// against it: the volatile input is exactly the one keyed by the
// predecessor in the matching order, and the stable keys are every other
// input's key vertex — none for a vertex with nothing to intersect.
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
			var wantStable []graph.VertexID
			if len(tree.NTEParents[u]) > 0 && !wantVolBase {
				wantStable = append(wantStable, graph.VertexID(tree.Parent[u]))
			}
			for j, un := range tree.NTEParents[u] {
				if un == prev {
					wantVolNTE = j
				} else {
					wantStable = append(wantStable, un)
				}
			}
			if p.volNTE != wantVolNTE {
				t.Fatalf("trial %d u=%d: volNTE=%d want %d", trial, u, p.volNTE, wantVolNTE)
			}
			if !slices.Equal(p.stableKeys, wantStable) {
				t.Fatalf("trial %d u=%d: stableKeys=%v want %v", trial, u, p.stableKeys, wantStable)
			}
			if n := len(tree.NTEParents[u]); n > 0 && len(wantStable) == 0 {
				t.Fatalf("trial %d u=%d: %d non-tree edges but no stable input", trial, u, n)
			}
		}
	}
}

// TestCachePlanFiresOnClique: the 4-clique's BFS star tree gives the
// deepest vertex a stable TE base (keyed by the root) plus one stable
// NTE list — a stable side that is a real intersection, computed once
// per sibling loop. Guard against an orderer change silently leaving
// every stable side a single raw list.
func TestCachePlanFiresOnClique(t *testing.T) {
	data := gen.Kronecker(8, 8, 1)
	tree, err := order.Preprocess(data, gen.QG3(), order.DefaultOptions())
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ix := Build(data, tree, Options{})
	used := false
	for _, p := range ix.ntePlan {
		used = used || len(p.stableKeys) >= 2
	}
	if !used {
		t.Fatal("no vertex intersects two stable inputs on a 4-clique query")
	}
}

// coldCandidates is CandidatesFor from first principles: a plain Get on
// every input map and a pairwise merge, with no scratch state at all.
func coldCandidates(ix *Index, u graph.VertexID, m []graph.VertexID) []graph.VertexID {
	node := &ix.Nodes[u]
	out := slices.Clone(node.TE.Get(m[ix.Tree.Parent[u]]))
	for j, un := range ix.Tree.NTEParents[u] {
		out = setops.IntersectWith(setops.KernelMerge, nil, out, node.NTE[j].Get(m[un]), nil)
	}
	return out
}

// TestStableCacheEquivalence: a depth cursor that lives through a whole
// enumeration — fingers, stable side, lazy bitmap — must return, call by
// call, what a cursor forgotten before every lookup (ResetUnitCache)
// returns and what the maps give without any scratch. The walk is the
// enumeration's own access pattern, a depth-first descent whose sibling
// loops present ascending keys, and then the same descent with every
// sibling loop shuffled, so fingers also see descending and repeated
// keys. Golden pairs, 4-/5-cliques on Kronecker graphs and the five
// labeled cyclic queries; every mechanism must actually fire.
func TestStableCacheEquivalence(t *testing.T) {
	type fixture struct {
		name        string
		data, query *graph.Graph
	}
	var fixtures []fixture
	gen.ForEachGoldenPair(func(name string, data, query *graph.Graph, _ int64) {
		fixtures = append(fixtures, fixture{name, data, query})
	})
	rng := rand.New(rand.NewSource(5))
	for trial, q := range []*graph.Graph{gen.QG3(), gen.QG5(), gen.QG3(), gen.QG5(), gen.QG2(), gen.QG4()} {
		fixtures = append(fixtures, fixture{"kronecker-" + string(rune('a'+trial)), gen.Kronecker(7, 5+rng.Intn(5), 1), q})
	}

	var lookups, stableHits, bitmapProbes, multiStable, emptyStable int
	var cursorBytes int64
	for _, fx := range fixtures {
		tree, err := order.Preprocess(fx.data, fx.query, order.DefaultOptions())
		if err != nil {
			continue
		}
		ix := Build(fx.data, tree, Options{})
		n := tree.NumVertices()
		for _, shuffled := range []bool{false, true} {
			warm := make([]MatchScratch, n)
			cold := make([]MatchScratch, n)
			m := make([]graph.VertexID, n)
			budget := 3000
			var walk func(depth int)
			walk = func(depth int) {
				if depth == n || budget <= 0 {
					return
				}
				budget--
				u := tree.Order[depth]
				hit := warm[depth].stableHit(ix.ntePlan[u].stableKeys, m) && len(ix.ntePlan[u].stableKeys) > 0
				got := slices.Clone(ix.CandidatesFor(u, m, &warm[depth]))
				cold[depth].ResetUnitCache()
				forgot := slices.Clone(ix.CandidatesFor(u, m, &cold[depth]))
				want := coldCandidates(ix, u, m)
				if !slices.Equal(got, want) || !slices.Equal(forgot, want) {
					t.Fatalf("%s shuffled=%v depth %d u=%d m=%v:\n cursor %v\n reset  %v\n maps   %v",
						fx.name, shuffled, depth, u, m, got, forgot, want)
				}
				lookups++
				if hit {
					stableHits++
					if warm[depth].bits == bitsFilled {
						bitmapProbes++
					}
					if len(warm[depth].stable) == 0 {
						emptyStable++
					}
				}
				if len(ix.ntePlan[u].stableKeys) >= 2 {
					multiStable++
				}
				if shuffled {
					rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
				}
				for _, v := range got {
					m[u] = v
					walk(depth + 1)
				}
			}
			for _, pivot := range ix.Pivots() {
				m[tree.Order[0]] = pivot
				walk(1)
			}
			// What the cursor keeps is part of the scratch's footprint.
			for d := range warm {
				sc := &warm[d]
				cursor := int64(cap(sc.fingers))*8 + sc.stableBits.FootprintBytes()
				bare := *sc
				bare.fingers, bare.stableBits = nil, bitset.Span{}
				if got := sc.FootprintBytes() - bare.FootprintBytes(); got != cursor {
					t.Fatalf("%s depth %d: footprint counts %d bytes for %d bytes of fingers and stable bitmap",
						fx.name, d, got, cursor)
				}
				cursorBytes += cursor
			}
		}
	}
	t.Logf("%d lookups: %d under an unchanged stable key, %d probing its bitmap, %d with a cached-empty stable side, %d at a vertex with >= 2 stable inputs",
		lookups, stableHits, bitmapProbes, emptyStable, multiStable)
	if stableHits == 0 || bitmapProbes == 0 || multiStable == 0 || cursorBytes == 0 {
		t.Fatal("a cursor mechanism never fired; fixtures too small")
	}
}
