package service

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

	ceciroot "ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/verify"
)

// cycleQuery builds a labeled cycle query of the given labels.
func cycleQuery(t *testing.T, labels ...graph.Label) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(len(labels))
	for v, l := range labels {
		b.SetLabel(graph.VertexID(v), l)
		b.AddEdge(graph.VertexID(v), graph.VertexID((v+1)%len(labels)))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// firstEdge is q's first edge as a query of its own — another class than
// q's — or nil when q is no more than that edge.
func firstEdge(q *graph.Graph) *graph.Graph {
	if q.NumVertices() <= 2 {
		return nil
	}
	b := graph.NewBuilder(2)
	q.Edges(func(u, v graph.VertexID) bool {
		b.SetLabel(0, q.Label(u))
		b.SetLabel(1, q.Label(v))
		b.AddEdge(0, 1)
		return false
	})
	return b.MustBuild()
}

// TestPageStableAcrossTwins: a page is a function of (class, offset,
// limit) at Workers 1 — not of which renumbering of the class happened to
// build the cached entry. The same request sent to an engine whose entry
// twin A built and to one whose entry twin B built gets the same page, id
// for id; and within one engine the page before an eviction is the page
// after the rebuild, whoever triggers it.
func TestPageStableAcrossTwins(t *testing.T) {
	page := func(eng *Engine, q *graph.Graph, offset, limit int64, wantHit bool) []graph.VertexID {
		t.Helper()
		resp, err := eng.Query(context.Background(), Request{Query: q, Offset: offset, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != wantHit {
			t.Fatalf("cache hit %v, want %v", resp.CacheHit, wantHit)
		}
		return resp.Page.IDs
	}
	check := func(name string, data, query *graph.Graph, seed int64) {
		twinA, _ := gen.PermuteVertices(query, gen.NewRNG(3*seed+1))
		twinB, _ := gen.PermuteVertices(query, gen.NewRNG(3*seed+2))
		req, _ := gen.PermuteVertices(query, gen.NewRNG(3*seed+3))

		engA := New(data, Options{Workers: 1})
		engB := New(data, Options{Workers: 1})
		page(engA, twinA, 0, 1, false)
		page(engB, twinB, 0, 1, false)
		for _, w := range [][2]int64{{0, 20}, {7, 5}} {
			a := page(engA, req, w[0], w[1], true)
			b := page(engB, req, w[0], w[1], true)
			if !slices.Equal(a, b) {
				t.Errorf("%s offset %d limit %d: the page depends on which twin built the entry:\n built by A %v\n built by B %v", name, w[0], w[1], a, b)
			}
		}

		// One engine whose budget holds the class or its neighbour, not
		// both: twin A builds the entry, the neighbour evicts it, twin B
		// builds it again.
		other := firstEdge(query)
		if other == nil {
			return
		}
		sizer := New(data, Options{Workers: 1})
		page(sizer, other, 0, 1, false)
		evicting := New(data, Options{Workers: 1,
			CacheBytes: max(engA.CacheStats().UsedBytes, sizer.CacheStats().UsedBytes)})
		page(evicting, twinA, 0, 1, false)
		before := page(evicting, req, 2, 10, true)
		page(evicting, other, 0, 1, false)
		page(evicting, twinB, 0, 1, false)
		after := page(evicting, req, 2, 10, true)
		if n := evicting.CacheStats().Evictions; n == 0 || evicting.Builds() != 3 {
			t.Fatalf("%s: %d evictions, %d builds: the entry was never rebuilt", name, n, evicting.Builds())
		}
		if !slices.Equal(before, after) {
			t.Errorf("%s: the page changed across an eviction:\n before %v\n after  %v", name, before, after)
		}
	}
	gen.ForEachGoldenPair(check)
	// A seeded labelled graph whose queries have symmetries to break.
	data := testData()
	for i, q := range []*graph.Graph{
		pathQuery(t, 0, 1, 0),
		pathQuery(t, 2, 1, 3, 1, 2),
		cycleQuery(t, 0, 1, 0, 1),
		cycleQuery(t, 1, 2, 3),
	} {
		check(fmt.Sprintf("labelled-%d", i), data, q, int64(100+i))
	}
}

// TestPermutedClientsAgainstColdMatch is the stateful differential test
// of the query lifecycle (run it under -race): concurrent clients send
// random renumberings of a dozen query classes, with random windows, to
// an engine whose cache holds about three of them, so hits, singleflight
// builds, followers and evictions interleave. Every answer, read back
// into the class's canonical numbering, must be the window of a cold
// ceci.Match on the canonical form: the count exactly, the page id for id
// (Workers is 1).
func TestPermutedClientsAgainstColdMatch(t *testing.T) {
	data := testData()
	var classes []*graph.Graph
	for _, labels := range [][]graph.Label{
		{0, 1}, {1, 2}, {2, 3}, {0, 1, 2}, {1, 2, 3}, {3, 0, 1}, {0, 2, 0}, {3, 1, 2, 0},
	} {
		classes = append(classes, pathQuery(t, labels...))
	}
	for _, labels := range [][]graph.Label{{0, 1, 2}, {1, 2, 3}, {0, 1, 0, 1}, {0, 1, 2, 3}} {
		classes = append(classes, cycleQuery(t, labels...))
	}

	// The oracle: each class's canonical form, matched cold through the
	// public API, embeddings in enumeration order.
	cold := make([][][]graph.VertexID, len(classes))
	probe := New(data, Options{Workers: 1})
	for i, q := range classes {
		_, perm := verify.CanonicalGraph(q)
		form, err := canonicalForm(q, perm)
		if err != nil {
			t.Fatal(err)
		}
		m, err := ceciroot.Match(data, form, &ceciroot.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		cold[i] = m.Collect()
		if _, err := probe.Query(context.Background(), Request{Query: q, Limit: 1}); err != nil {
			t.Fatal(err)
		}
	}
	// Room for about a quarter of the classes.
	budget := probe.CacheStats().UsedBytes / 4
	eng := New(data, Options{Workers: 1, CacheBytes: budget, MaxConcurrent: 4, QueueDepth: 64, MaxLimit: 1 << 20})

	const clients, rounds = 8, 30
	var wg sync.WaitGroup
	errs := make(chan error, clients*rounds)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := gen.NewRNG(int64(1000 + c))
			for r := 0; r < rounds; r++ {
				ci := rng.Intn(len(classes))
				q, _ := gen.PermuteVertices(classes[ci], rng)
				req := Request{Query: q}
				switch rng.Intn(3) {
				case 0: // everything
				case 1:
					req.Offset, req.Limit = int64(rng.Intn(8)), int64(1+rng.Intn(40))
				case 2:
					req.CountOnly = true
				}
				resp, err := eng.Query(context.Background(), req)
				if err != nil {
					errs <- fmt.Errorf("client %d class %d: %v", c, ci, err)
					continue
				}
				want := cold[ci]
				wantCount := int64(len(want))
				if req.Limit > 0 {
					wantCount = min(wantCount, req.Offset+req.Limit)
				}
				if resp.Count != wantCount {
					errs <- fmt.Errorf("client %d class %d offset %d limit %d: count %d, cold match says %d",
						c, ci, req.Offset, req.Limit, resp.Count, wantCount)
				}
				if req.CountOnly {
					continue
				}
				want = want[min(req.Offset, wantCount):wantCount]
				got := resp.Page.Rows()
				_, perm := verify.CanonicalGraph(q)
				ok := len(got) == len(want)
				for i := 0; ok && i < len(got); i++ {
					for u, p := range perm {
						ok = ok && got[i][u] == want[i][p]
					}
				}
				if !ok {
					errs <- fmt.Errorf("client %d class %d offset %d limit %d (cache hit %v): page of %d rows is not the cold match's window of %d",
						c, ci, req.Offset, req.Limit, resp.CacheHit, len(got), len(want))
				}
			}
		}(c)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	s := eng.CacheStats()
	if eng.Builds() <= int64(len(classes)) || s.Evictions == 0 {
		t.Errorf("%d builds for %d classes, %d evictions: the cache never turned over, the test exercised nothing", eng.Builds(), len(classes), s.Evictions)
	}
	if s.UsedBytes > s.BudgetBytes {
		t.Errorf("cache over budget: %d > %d", s.UsedBytes, s.BudgetBytes)
	}
}
