package enum

import (
	"fmt"
	"slices"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/stats"
	"ceci/internal/workload"
)

// sharingEverywhere returns NewMatcher(ix, opts) with a sharing rule under
// which every pair of query vertices can share a data vertex: the
// injectivity bitmap is read at every depth and every correction of the
// histogram count is formed.
func sharingEverywhere(ix *ceci.Index, opts Options) *Matcher {
	m := NewMatcher(ix, opts)
	m.decideSharing(func(x, u graph.VertexID) bool { return true })
	return m
}

// sortedCollect returns m's embeddings in lexicographic order.
func sortedCollect(m *Matcher) [][]graph.VertexID {
	out := m.Collect()
	slices.SortFunc(out, slices.Compare)
	return out
}

// TestSharingRuleIsSound: where Matcher.canShare says two query vertices
// that share no query edge cannot share a data vertex, their candidate
// lists are disjoint; and a matcher under the rule counts, collects and
// recurses exactly as one under which every pair can share — over
// RandomPair seeds 1–300, the golden pairs and elimPair's graphs, under
// Workers {1, 3} × ST/FGD with symmetry breaking on and off.
func TestSharingRuleIsSound(t *testing.T) {
	type fixture struct {
		name        string
		data, query *graph.Graph
	}
	var fixtures []fixture
	seeds := int64(300)
	if testing.Short() {
		seeds = 60
	}
	for seed := int64(1); seed <= seeds; seed++ {
		data, query := gen.RandomPair(seed)
		fixtures = append(fixtures, fixture{fmt.Sprintf("random-pair-%d", seed), data, query})
	}
	gen.ForEachGoldenPair(func(name string, data, query *graph.Graph, _ int64) {
		fixtures = append(fixtures, fixture{name, data, query})
	})
	for seed := int64(1); seed <= 40; seed++ {
		data, queries := elimPair(seed)
		for i, query := range queries {
			fixtures = append(fixtures, fixture{fmt.Sprintf("elim-pair-%d/%d", seed, i), data, query})
		}
	}

	var ruled, shared int
	for _, fx := range fixtures {
		tree, err := order.Preprocess(fx.data, fx.query, order.DefaultOptions())
		if err != nil {
			t.Fatalf("%s: Preprocess: %v", fx.name, err)
		}
		ix := ceci.Build(fx.data, tree, ceci.Options{})
		m := NewMatcher(ix, Options{Workers: 1})
		q := tree.Query
		for x := range q.NumVertices() {
			for u := x + 1; u < q.NumVertices(); u++ {
				a, b := graph.VertexID(x), graph.VertexID(u)
				switch {
				case q.HasEdge(a, b):
				case m.canShare(a, b):
					shared++
				default:
					ruled++
					if v, ok := meet(ix.Nodes[a].Cands, ix.Nodes[b].Cands); ok {
						t.Fatalf("%s: query vertices %d and %d cannot share by the rule, but %d is a candidate of both", fx.name, a, b, v)
					}
				}
			}
		}
		for _, keep := range []bool{false, true} {
			for _, workers := range []int{1, 3} {
				for _, strat := range []workload.Strategy{workload.ST, workload.FGD} {
					var ruleStats, refStats stats.Counters
					opts := Options{Workers: workers, Strategy: strat, DisableSymmetryBreaking: keep}
					opts.Stats = &ruleStats
					rule := NewMatcher(ix, opts)
					opts.Stats = &refStats
					ref := sharingEverywhere(ix, opts)
					where := fmt.Sprintf("%s keep=%v workers %d %v", fx.name, keep, workers, strat)
					if got, want := rule.Count(), ref.Count(); got != want {
						t.Fatalf("%s: Count %d under the rule, %d when every pair can share", where, got, want)
					}
					// The dense golden pair has 13 million embeddings: its
					// count and recursive calls are compared, not its list.
					if fx.name != "dense" && !slices.EqualFunc(sortedCollect(rule), sortedCollect(ref), slices.Equal) {
						t.Fatalf("%s: Collect differs from a matcher whose every pair can share", where)
					}
					if got, want := ruleStats.RecursiveCalls.Load(), refStats.RecursiveCalls.Load(); got != want {
						t.Fatalf("%s: %d recursive calls under the rule, %d when every pair can share", where, got, want)
					}
				}
			}
		}
	}
	t.Logf("%d fixtures: %d non-adjacent query vertex pairs can share, %d cannot", len(fixtures), shared, ruled)
	if ruled == 0 || shared == 0 {
		t.Fatal("the rule's label test never went both ways: fixtures too uniform")
	}
}

// meet returns an element of both sorted lists, if there is one.
func meet(a, b []graph.VertexID) (graph.VertexID, bool) {
	for i, j := 0, 0; i < len(a) && j < len(b); {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			return a[i], true
		}
	}
	return 0, false
}
