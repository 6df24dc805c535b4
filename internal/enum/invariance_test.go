package enum

import (
	"fmt"
	"testing"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/stats"
	"ceci/internal/workload"
)

// deadEndSplits counts the splits of an FGD decomposition whose lookup
// left no candidate: every split is one lookup on scratch, and every
// split that produced a sub-unit is a proper prefix of some emitted unit.
func deadEndSplits(ix *ceci.Index, cons *auto.Constraints, workers int) int64 {
	scratch := make([]ceci.MatchScratch, ix.Tree.NumVertices())
	var lookups int64
	fruitful := map[string]bool{}
	for _, u := range workload.Decompose(ix, cons, 0, workers, ix.Tree.NumVertices(), scratch) {
		for n := 1; n < len(u.Pos); n++ {
			fruitful[fmt.Sprint(u.Pos[:n])] = true
		}
	}
	for d := range scratch {
		lookups += scratch[d].Steps.Lookups
	}
	return lookups - int64(len(fruitful))
}

// TestFGDWorkCountsWorkerInvariant: how many workers share an FGD run
// decides who performs a candidate lookup, never whether it is performed
// — the per-vertex lookup and output totals, the intersection count and
// the embedding count of Workers 2/4/8 equal the unsplit Workers 1 run.
// The seeded pairs are ones whose decomposition hits dead ends (a split
// whose lookup leaves no candidate), which commit 16bf1fd kept as
// zero-cardinality units whose lookup was then run a second time.
func TestFGDWorkCountsWorkerInvariant(t *testing.T) {
	type pair struct {
		name        string
		data, query *graph.Graph
		root        int
	}
	cases := []pair{{"fig1", gen.Fig1Data(), gen.Fig1Query(), 2}}
	for _, seed := range []int64{4, 22, 74, 118, 187, 211} {
		d, q := gen.RandomPair(seed)
		cases = append(cases, pair{fmt.Sprintf("random-pair-%d", seed), d, q, -1})
	}
	var deadEnds int64
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			opts := order.DefaultOptions()
			if tc.root >= 0 {
				opts = order.Options{ForcedRoot: tc.root}
			}
			tree, err := order.Preprocess(tc.data, tc.query, opts)
			if err != nil {
				t.Fatal(err)
			}
			ix := ceci.Build(tc.data, tree, ceci.Options{})
			cons := auto.Compute(tc.query)

			type counts struct{ lookups, output, intersections, embeddings int64 }
			run := func(workers int) counts {
				p, st := prof.New(), &stats.Counters{}
				n := NewMatcher(ix, Options{
					Workers: workers, Strategy: workload.FGD, Profile: p, Stats: st,
				}).Count()
				c := counts{intersections: st.IntersectionOps.Load(), embeddings: n}
				for _, v := range p.Snapshot().Vertices {
					c.lookups += v.Enum.Lookups
					c.output += v.Enum.Output
				}
				return c
			}
			want := run(1)
			if want.lookups == 0 {
				t.Fatal("single-worker run recorded no lookups")
			}
			for _, workers := range []int{2, 4, 8} {
				deadEnds += deadEndSplits(ix, cons, workers)
				if got := run(workers); got != want {
					t.Errorf("workers %d: lookups/output/intersections/embeddings = %+v, workers 1 = %+v",
						workers, got, want)
				}
			}
		})
	}
	if deadEnds == 0 {
		t.Fatal("no fixture hits a dead-end split any more: the invariance under test is not exercised")
	}
}
