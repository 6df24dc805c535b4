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

// TestCachePlanVolatilitySplit re-derives the two-level split from first
// principles for a spread of query shapes and checks the built plan
// against it: the inner input is the one keyed by the vertex latest in
// the matching order, the outer inputs are every other one, TE first; the
// plan is volatile exactly when an input is keyed by the predecessor —
// which is then the inner one — and a vertex without non-tree edges has
// no plan at all.
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
			if len(tree.NTEParents[u]) == 0 {
				if p.outer != nil || p.volatile {
					t.Fatalf("trial %d u=%d: one input, plan %+v", trial, u, p)
				}
				continue
			}
			// Every input as (slot, key vertex), TE first.
			slots := []int{teSlot}
			keys := []graph.VertexID{graph.VertexID(tree.Parent[u])}
			for j, un := range tree.NTEParents[u] {
				slots = append(slots, j)
				keys = append(keys, un)
			}
			deepest := 0
			for k := range keys {
				if tree.Pos[keys[k]] > tree.Pos[keys[deepest]] {
					deepest = k
				}
			}
			if p.inner != slots[deepest] || p.innerKey != keys[deepest] {
				t.Fatalf("trial %d u=%d: inner slot %d key %d, want slot %d key %d",
					trial, u, p.inner, p.innerKey, slots[deepest], keys[deepest])
			}
			wantOuter := slices.Delete(slices.Clone(slots), deepest, deepest+1)
			wantKeys := slices.Delete(slices.Clone(keys), deepest, deepest+1)
			if !slices.Equal(p.outer, wantOuter) || !slices.Equal(p.outerKeys, wantKeys) {
				t.Fatalf("trial %d u=%d: outer %v keyed %v, want %v keyed %v",
					trial, u, p.outer, p.outerKeys, wantOuter, wantKeys)
			}
			if want := slices.Contains(keys, prev); p.volatile != want {
				t.Fatalf("trial %d u=%d: volatile=%v, an input keyed by the predecessor: %v", trial, u, p.volatile, want)
			}
		}
	}
}

// TestCachePlanFiresOnClique: the 4-clique's BFS star tree gives the
// deepest vertex a TE list keyed by the root and NTE lists keyed by the
// two vertices after it — an outer side that is a real intersection,
// computed once per sibling loop. Guard against an orderer change
// silently leaving every outer side a single raw list.
func TestCachePlanFiresOnClique(t *testing.T) {
	data := gen.Kronecker(8, 8, 1)
	tree, err := order.Preprocess(data, gen.QG3(), order.DefaultOptions())
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ix := Build(data, tree, Options{})
	used := false
	for _, p := range ix.ntePlan {
		used = used || len(p.outerKeys) >= 2
	}
	if !used {
		t.Fatal("no vertex intersects two outer inputs on a 4-clique query")
	}
}

// coldCandidates is CandidatesFor from first principles: a plain read of
// every input map and a pairwise merge, with no scratch state at all.
func coldCandidates(ix *Index, u graph.VertexID, pos []uint32) []uint32 {
	node := &ix.Nodes[u]
	out := node.TE.AppendAt(nil, pos[ix.Tree.Parent[u]])
	for j, un := range ix.Tree.NTEParents[u] {
		out = setops.IntersectWith(setops.KernelMerge, nil, out, node.NTE[j].AppendAt(nil, pos[un]), nil)
	}
	return out
}

// TestStableCacheEquivalence: a depth cursor that lives through a whole
// enumeration — the outer side and its lazy bitmap, the result
// kept under every key — must return, call by call, what a cursor
// forgotten before every lookup (ResetUnitCache) returns, what a cursor
// forgotten at every cluster boundary the way an enumeration worker does
// returns, and what the maps give without any scratch. The walk is the
// enumeration's own access pattern, a depth-first descent whose sibling
// loops present ascending keys, and then the same descent with every
// sibling loop shuffled, so the cursor also sees descending and repeated
// keys. Golden pairs, 4-/5-cliques and houses on Kronecker graphs and the
// five labeled cyclic queries; every mechanism must actually fire,
// including the kept result of a vertex whose inputs are all keyed before
// its predecessor, at different depths (the house's last vertex).
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
	for trial, q := range []*graph.Graph{gen.QG3(), gen.QG5(), gen.QG3(), gen.QG5(), gen.QG2(), gen.QG4(), gen.QG4()} {
		fixtures = append(fixtures, fixture{"kronecker-" + string(rune('a'+trial)), gen.Kronecker(7, 5+rng.Intn(5), 1), q})
	}

	var lookups, outerHits, bitmapProbes, multiOuter, emptyOuter, keptHits, innerMoves int
	var cursorBytes, resultBytes int64
	for _, fx := range fixtures {
		tree, err := order.Preprocess(fx.data, fx.query, order.DefaultOptions())
		if err != nil {
			continue
		}
		ix := Build(fx.data, tree, Options{})
		n := tree.NumVertices()
		for _, shuffled := range []bool{false, true} {
			warm := make([]MatchScratch, n)
			unit := make([]MatchScratch, n) // forgotten at every cluster boundary
			cold := make([]MatchScratch, n)
			m := make([]uint32, n) // positions
			budget := 3000
			var walk func(depth int)
			walk = func(depth int) {
				if depth == n || budget <= 0 {
					return
				}
				budget--
				u := tree.Order[depth]
				plan := &ix.ntePlan[u]
				sc := &warm[depth]
				twoLevel := len(tree.NTEParents[u]) > 0
				hit := twoLevel && sc.outerHit(plan.outerKeys, m)
				kept := hit && sc.resultOK && sc.innerKey == m[plan.innerKey]
				got := slices.Clone(ix.CandidatesFor(u, m, sc))
				cold[depth].ResetUnitCache()
				forgot := slices.Clone(ix.CandidatesFor(u, m, &cold[depth]))
				perUnit := slices.Clone(ix.CandidatesFor(u, m, &unit[depth]))
				want := coldCandidates(ix, u, m)
				if !slices.Equal(got, want) || !slices.Equal(forgot, want) || !slices.Equal(perUnit, want) {
					t.Fatalf("%s shuffled=%v depth %d u=%d m=%v:\n cursor %v\n reset  %v\n unit   %v\n maps   %v",
						fx.name, shuffled, depth, u, m, got, forgot, perUnit, want)
				}
				lookups++
				if hit {
					outerHits++
					if sc.bits == bitsFilled {
						bitmapProbes++
					}
					if len(sc.outer) == 0 {
						emptyOuter++
					}
				}
				switch {
				case kept:
					keptHits++
				case hit && !plan.volatile && len(plan.outerKeys) > 0:
					innerMoves++ // the outer side reused under a new inner key
				}
				if len(plan.outerKeys) >= 2 {
					multiOuter++
				}
				if shuffled {
					rng.Shuffle(len(got), func(i, j int) { got[i], got[j] = got[j], got[i] })
				}
				for _, v := range got {
					m[u] = v
					walk(depth + 1)
				}
			}
			for p := range ix.Pivots() {
				for d := range unit {
					unit[d].ResetUnitCache()
				}
				m[tree.Order[0]] = uint32(p)
				walk(1)
			}
			// What the cursor keeps is part of the scratch's footprint.
			for d := range warm {
				sc := &warm[d]
				cursor := sc.outerBits.FootprintBytes() + int64(cap(sc.out))*4
				bare := *sc
				bare.outerBits, bare.out = bitset.Span{}, nil
				if got := sc.FootprintBytes() - bare.FootprintBytes(); got != cursor {
					t.Fatalf("%s depth %d: footprint counts %d bytes for %d bytes of outer bitmap and result buffer",
						fx.name, d, got, cursor)
				}
				cursorBytes += cursor
				resultBytes += int64(cap(sc.out)) * 4
			}
		}
	}
	t.Logf("%d lookups: %d under an unchanged outer key, %d probing its bitmap, %d with a cached-empty outer side, "+
		"%d at a vertex with >= 2 outer inputs, %d answered by a kept result, %d reusing the outer side under a new inner key",
		lookups, outerHits, bitmapProbes, emptyOuter, multiOuter, keptHits, innerMoves)
	if outerHits == 0 || bitmapProbes == 0 || multiOuter == 0 || keptHits == 0 || innerMoves == 0 ||
		cursorBytes == 0 || resultBytes == 0 {
		t.Fatal("a cursor mechanism never fired; fixtures too small")
	}
}
