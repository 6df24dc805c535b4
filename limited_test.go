package ceci_test

import (
	"fmt"
	"slices"
	"sync"
	"sync/atomic"
	"testing"

	"ceci"
	"ceci/internal/gen"
)

// buildLog counts the index builds a tracer sees: a "build" span opening.
type buildLog struct{ n atomic.Int64 }

// onStart is the tracer's start hook (TracerOptions.OnStart).
func (b *buildLog) onStart(name string) {
	if name == "build" {
		b.n.Add(1)
	}
}

func match(t *testing.T, data, query *ceci.Graph, opts *ceci.Options) *ceci.Matcher {
	t.Helper()
	m, err := ceci.Match(data, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// pageCap bounds the pages TestLimitedMatchPage holds in memory; a limit
// past it is checked as a count. Only the "dense" pair has more embeddings
// (13 146 712: a page of them would be 300 MB), and its first cluster's
// 48 376 fit, so its pages at limits 1 and 7 are checked like the others.
const pageCap = 1 << 16

// TestLimitedMatchPage: a limited Match — the first cluster's index,
// completed when a call comes up short — pages what the unlimited one
// enumerates. For the 57 golden pairs and limits {1, 7, total−1, total,
// total+1}: under StrategyStatic on one worker the page is the unlimited
// run's first L embeddings, id for id; under the default FGD on four it is
// min(L, total) distinct members of the exhaustive set.
func TestLimitedMatchPage(t *testing.T) {
	gen.ForEachGoldenPair(func(name string, data, query *ceci.Graph, _ int64) {
		static := ceci.Options{Workers: 1, Strategy: ceci.StrategyStatic}
		total := match(t, data, query, &static).Count()
		head := match(t, data, query, &static).First(pageCap)
		members := map[string]bool{}
		for _, emb := range head {
			members[fmt.Sprint(emb)] = true
		}
		for _, limit := range []int64{1, 7, total - 1, total, total + 1} {
			if limit <= 0 {
				continue
			}
			o, fgd := static, ceci.Options{Workers: 4}
			o.Limit, fgd.Limit = limit, limit
			if limit > pageCap {
				if s, f := match(t, data, query, &o).Count(), match(t, data, query, &fgd).Count(); s != min(limit, total) || f != s {
					t.Fatalf("%s limit %d: counted %d (static) and %d (FGD), want %d", name, limit, s, f, min(limit, total))
				}
				continue
			}
			want := head[:min(limit, total)]
			page := match(t, data, query, &o).Collect()
			if len(page) != len(want) {
				t.Fatalf("%s limit %d: static page of %d, want %d", name, limit, len(page), len(want))
			}
			for i := range want {
				if !slices.Equal(page[i], want[i]) {
					t.Fatalf("%s limit %d: embedding %d is %v, the unlimited run's is %v", name, limit, i, page[i], want[i])
				}
			}
			page = match(t, data, query, &fgd).Collect()
			seen := map[string]bool{}
			for _, emb := range page {
				k := fmt.Sprint(emb)
				if seen[k] || !members[k] {
					t.Fatalf("%s limit %d: FGD page has %v twice or outside the exhaustive set", name, limit, emb)
				}
				seen[k] = true
			}
			if len(page) != len(want) {
				t.Fatalf("%s limit %d: FGD page of %d, want %d", name, limit, len(page), len(want))
			}
		}
	})
}

// TestLimitedMatchGrowsOnce: concurrent Count and ForEach calls on one
// limited matcher whose first cluster cannot fill the limit each get the
// whole answer, and the complete index is built once — two builds in all,
// the prefix's and the complete one. The held index is mutable state: CI
// runs this under -race.
func TestLimitedMatchGrowsOnce(t *testing.T) {
	data, query := gen.ErdosRenyi(300, 2400, 7), gen.QG1()
	total := match(t, data, query, nil).Count()
	log := &buildLog{}
	m := match(t, data, query, &ceci.Options{
		Workers: 2, Limit: total + 1,
		Tracer: ceci.NewTracer(ceci.TracerOptions{OnStart: log.onStart}),
	})
	var wg sync.WaitGroup
	counts := make([]int64, 8)
	for i := range counts {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if i%2 == 0 {
				counts[i] = m.Count()
				return
			}
			var n atomic.Int64
			m.ForEach(func([]ceci.VertexID) bool {
				n.Add(1)
				return true
			})
			counts[i] = n.Load()
		}()
	}
	wg.Wait()
	for i, n := range counts {
		if n != total {
			t.Errorf("call %d counted %d, want %d", i, n, total)
		}
	}
	if n := log.n.Load(); n != 2 {
		t.Fatalf("%d builds, want 2: the prefix and one complete index", n)
	}
}

// TestLimitedMatchIndexIsComplete: what reports the index — IndexInfo,
// Explain — reports the complete one on a limited matcher, and that index
// is, value for value of its id-level dump, what an unlimited Match with
// the same options holds, whether or not a call has grown it yet.
func TestLimitedMatchIndexIsComplete(t *testing.T) {
	gen.ForEachGoldenPair(func(name string, data, query *ceci.Graph, _ int64) {
		want := match(t, data, query, &ceci.Options{Workers: 2})
		wantIdx, err := ceci.IndexDump(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, count := range []bool{false, true} {
			m := match(t, data, query, &ceci.Options{Workers: 2, Limit: 1})
			if count {
				m.Count()
			}
			idx, err := ceci.IndexDump(m)
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(idx, wantIdx) {
				t.Fatalf("%s (counted first: %v): the index differs from the unlimited Match's", name, count)
			}
			if got := m.IndexInfo(); got != want.IndexInfo() {
				t.Fatalf("%s: IndexInfo %+v, unlimited %+v", name, got, want.IndexInfo())
			}
			if got := m.Explain(); got != want.Explain() {
				t.Fatalf("%s: Explain\n%s\nunlimited\n%s", name, got, want.Explain())
			}
		}
	})
}
