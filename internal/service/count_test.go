package service

import (
	"context"
	"slices"
	"testing"

	ceciroot "ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/stats"
)

// TestCountOnlyLimitedMatchesPage: a count-only request with limit L
// counts what a paged request over the same window counts — min(total,
// offset+L), total from a cold ceci.Match — at Workers 1 and 4, from
// offset 0 and past it, around and across the total. The count-only
// engine delivers a whole last depth in one step, clamped to the limit;
// on a square with no symmetry it counts the last vertex from a
// histogram without descending to it, seen in its recursive calls, fewer
// than the page's for some class.
func TestCountOnlyLimitedMatchesPage(t *testing.T) {
	data := gen.WithRandomLabels(gen.ErdosRenyi(60, 360, 3), 3, 5)
	queries := map[string]*graph.Graph{
		"path-3":        pathQuery(t, 0, 1, 2),
		"path-3-twins":  pathQuery(t, 1, 0, 1),
		"path-4":        pathQuery(t, 0, 1, 2, 0),
		"path-5":        pathQuery(t, 2, 0, 1, 0, 2),
		"cycle-4-tail":  cycleQuery(t, 0, 1, 0, 2),
		"cycle-4":       cycleQuery(t, 0, 0, 1, 2),
		"unlabeled-4":   pathQuery(t, 0, 0, 0, 0),
		"unlabeled-3":   pathQuery(t, 0, 0, 0),
		"one-edge-pair": pathQuery(t, 1, 2),
	}
	shortcuts := 0
	for name, q := range queries {
		m, err := ceciroot.Match(data, q, &ceciroot.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		total := m.Count()
		var limits []int64
		for _, l := range []int64{1, 7, total - 1, total, total + 1} {
			if l > 0 && !slices.Contains(limits, l) {
				limits = append(limits, l)
			}
		}
		for _, workers := range []int{1, 4} {
			st := &stats.Counters{}
			eng := New(data, Options{Workers: workers, MaxLimit: 1 << 20, Stats: st})
			var countCalls, pageCalls int64
			for _, offset := range []int64{0, 3} {
				for _, limit := range limits {
					want := min(total, offset+limit)
					for _, countOnly := range []bool{true, false} {
						before := st.RecursiveCalls.Load()
						resp, err := eng.Query(context.Background(), Request{Query: q, Offset: offset, Limit: limit, CountOnly: countOnly})
						if err != nil {
							t.Fatalf("%s workers %d offset %d limit %d count_only %v: %v", name, workers, offset, limit, countOnly, err)
						}
						calls := st.RecursiveCalls.Load() - before
						rows := max(want-offset, 0)
						if countOnly {
							countCalls += calls
							rows = 0
						} else {
							pageCalls += calls
						}
						if resp.Count != want || int64(resp.Page.Len()) != rows {
							t.Errorf("%s workers %d offset %d limit %d count_only %v: count %d, %d rows; want %d, %d (total %d)",
								name, workers, offset, limit, countOnly, resp.Count, resp.Page.Len(), want, rows, total)
						}
					}
				}
			}
			if countCalls < pageCalls {
				shortcuts++
			}
		}
	}
	if shortcuts == 0 {
		t.Error("no class counted with fewer recursive calls than it paged: the count-only engine's histogram was never taken")
	}
}
