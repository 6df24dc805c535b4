package service

import (
	"context"
	"fmt"
	"slices"
	"sync"
	"testing"

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
// build the cached entry, nor of how many of the class's clusters the
// entry that answered covered. The same request sent to an engine whose
// entry twin A built and to one whose entry twin B built gets the same
// page, id for id; and within one engine the page before an eviction is
// the page after the rebuild, whoever triggers it. A class costs at most
// two builds between evictions and none once its entry covers the window:
// a request no deeper than one already answered is a hit.
func TestPageStableAcrossTwins(t *testing.T) {
	page := func(eng *Engine, q *graph.Graph, offset, limit int64, wantHit bool) []graph.VertexID {
		t.Helper()
		builds := eng.Builds()
		resp, err := eng.Query(context.Background(), Request{Query: q, Offset: offset, Limit: limit})
		if err != nil {
			t.Fatal(err)
		}
		if resp.CacheHit != wantHit || (wantHit && eng.Builds() != builds) {
			t.Fatalf("cache hit %v with %d builds, want %v", resp.CacheHit, eng.Builds()-builds, wantHit)
		}
		return resp.Page.IDs
	}
	check := func(name string, data, query *graph.Graph, seed int64) {
		twinA, _ := gen.PermuteVertices(query, gen.NewRNG(3*seed+1))
		twinB, _ := gen.PermuteVertices(query, gen.NewRNG(3*seed+2))
		req, _ := gen.PermuteVertices(query, gen.NewRNG(3*seed+3))

		// The deepest window below ends at 20: the twins build for that.
		engA := New(data, Options{Workers: 1})
		engB := New(data, Options{Workers: 1})
		page(engA, twinA, 0, 20, false)
		page(engB, twinB, 0, 20, false)
		if a, b := engA.Builds(), engB.Builds(); a > 2 || a != b {
			t.Fatalf("%s: %d and %d builds for one class, want the same and at most 2", name, a, b)
		}
		for _, w := range [][2]int64{{0, 20}, {7, 5}, {0, 1}} {
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
		page(evicting, twinA, 0, 20, false)
		before := page(evicting, req, 2, 10, true)
		page(evicting, other, 0, 1, false)
		page(evicting, twinB, 0, 20, false)
		after := page(evicting, req, 2, 10, true)
		if n, b := evicting.CacheStats().Evictions, evicting.Builds(); n == 0 || b != 2*engA.Builds()+sizer.Builds() {
			t.Fatalf("%s: %d evictions, %d builds where the class takes %d and its neighbour %d: the entry was not rebuilt once",
				name, n, b, engA.Builds(), sizer.Builds())
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
// random renumberings of a dozen query classes, with random windows — a
// page of one, shallow pages, pages and bounded counts deep enough to
// outrun a first cluster, everything, everything counted — to an engine
// whose cache holds about three of the classes' complete indexes, so hits,
// singleflight builds, followers, growth from a one-cluster entry to the
// complete one, replacement and evictions interleave. Every answer, read
// back into the class's canonical numbering, must be the window of a cold
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
	const maxLimit = 1 << 20
	cold := make([][][]graph.VertexID, len(classes))
	probe := New(data, Options{Workers: 1})
	for i, q := range classes {
		var all bool
		if cold[i], all, _ = coldForm(t, data, q); !all {
			t.Fatalf("class %d has more than %d embeddings", i, coldCap)
		}
		if _, err := probe.Query(context.Background(), Request{Query: q, CountOnly: true}); err != nil {
			t.Fatal(err)
		}
	}
	// Room for about a quarter of the classes' complete indexes.
	budget := probe.CacheStats().UsedBytes / 4
	eng := New(data, Options{Workers: 1, CacheBytes: budget, MaxConcurrent: 4, QueueDepth: 64, MaxLimit: maxLimit})

	const clients, rounds = 8, 40
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
				switch rng.Intn(6) {
				case 0: // everything
				case 1:
					req.Offset, req.Limit = int64(rng.Intn(8)), int64(1+rng.Intn(40))
				case 2:
					req.CountOnly = true
				case 3:
					req.Limit = 1
				case 4: // a page somewhere in the class's answer, often past a first cluster
					req.Offset, req.Limit = int64(rng.Intn(len(cold[ci])+1)), int64(1+rng.Intn(10))
				case 5:
					req.CountOnly, req.Limit = true, int64(1+rng.Intn(len(cold[ci])+5))
				}
				resp, err := eng.Query(context.Background(), req)
				if err == nil {
					_, perm := verify.CanonicalGraph(q)
					err = checkWindow(req, resp, cold[ci], perm, maxLimit)
				}
				if err != nil {
					errs <- fmt.Errorf("client %d class %d offset %d limit %d count_only %v: %v",
						c, ci, req.Offset, req.Limit, req.CountOnly, err)
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
	if eng.Builds() <= int64(len(classes)) || s.Evictions == 0 || s.Grown == 0 {
		t.Errorf("%d builds for %d classes, %d evictions, %d entries grown: the cache never turned over, the test exercised nothing",
			eng.Builds(), len(classes), s.Evictions, s.Grown)
	}
	if s.UsedBytes > s.BudgetBytes {
		t.Errorf("cache over budget: %d > %d", s.UsedBytes, s.BudgetBytes)
	}
}
