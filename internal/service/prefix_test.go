package service

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http/httptest"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	ceciroot "ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/verify"
)

// coldCap bounds how much of a cold match the oracle keeps: one golden
// pair has 13 million embeddings.
const coldCap = 1 << 16

// coldForm matches q's canonical form cold through the public API and
// returns its first coldCap embeddings in enumeration order (canonical
// numbering), whether those are all of them, and q's permutation onto the
// form.
func coldForm(t *testing.T, data, q *graph.Graph) (cold [][]graph.VertexID, all bool, perm []int) {
	t.Helper()
	_, perm = verify.CanonicalGraph(q)
	form, err := canonicalForm(q, perm)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ceciroot.Match(data, form, &ceciroot.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}
	all = true
	m.ForEach(func(emb []graph.VertexID) bool {
		if len(cold) == coldCap {
			all = false
			return false
		}
		cold = append(cold, slices.Clone(emb))
		return true
	})
	return cold, all, perm
}

// checkWindow compares one answer with the window of the cold match it
// must be: the count exactly, the page id for id.
func checkWindow(req Request, resp *Response, cold [][]graph.VertexID, perm []int, maxLimit int64) error {
	limit := req.Limit
	if !req.CountOnly && (limit == 0 || limit > maxLimit) {
		limit = maxLimit
	}
	wantCount := int64(len(cold))
	if limit > 0 {
		wantCount = min(wantCount, req.Offset+limit)
	}
	if resp.Count != wantCount {
		return fmt.Errorf("count %d, cold match says %d", resp.Count, wantCount)
	}
	if req.CountOnly {
		if resp.Page.Len() != 0 {
			return fmt.Errorf("a count came with %d rows", resp.Page.Len())
		}
		return nil
	}
	want := cold[min(req.Offset, wantCount):wantCount]
	got := resp.Page.Rows()
	if len(got) != len(want) {
		return fmt.Errorf("page of %d rows, the cold match's window has %d", len(got), len(want))
	}
	for i := range got {
		for u, p := range perm {
			if got[i][u] != want[i][p] {
				return fmt.Errorf("row %d is %v, the cold match's (canonical numbering) %v", i, got[i], want[i])
			}
		}
	}
	return nil
}

// firstClusterYield is how many embeddings the class's one-cluster entry
// holds: what a fresh engine caches for a page of one, counted. prefix is
// false when that entry is already the complete one.
func firstClusterYield(t *testing.T, data, q *graph.Graph) (yield int64, prefix bool) {
	t.Helper()
	eng := New(data, Options{Workers: 1})
	if _, err := eng.Query(context.Background(), Request{Query: q, Limit: 1}); err != nil {
		t.Fatal(err)
	}
	for _, ent := range eng.cache.byKey {
		if ent.covered != 1 {
			return 0, false // one root candidate in all, or the first one's cluster was empty
		}
		return enum.NewMatcher(ent.ix, enum.Options{Workers: 1}).Count(), true
	}
	t.Fatal("a served class left no entry")
	return 0, false
}

// TestPrefixPageEqualsColdMatch: an entry over a prefix of the class's
// pivots answers with the first embeddings of the complete index, in its
// order. For every golden pair and one dense pair, a grid of windows —
// a page of one, pages that end on, one past and across the first
// cluster's yield, counts bounded and (where the cold match is kept whole)
// unbounded, the default page — sent
// small-then-deep to one fresh engine and deep-then-small to another, gets
// from both the window of a cold ceci.Match on the canonical form: count
// exactly, page id for id (Workers 1). No engine builds more than twice,
// and the page of one builds once where the first cluster holds anything.
func TestPrefixPageEqualsColdMatch(t *testing.T) {
	const maxLimit = 1 << 12
	var crossed, stayed int
	check := func(name string, data, query *graph.Graph, seed int64) {
		q, _ := gen.PermuteVertices(query, gen.NewRNG(seed+77))
		cold, all, perm := coldForm(t, data, q)
		y, prefix := firstClusterYield(t, data, q)
		grid := []Request{
			{Limit: 1},
			{Offset: 3, Limit: 5},
			{CountOnly: true, Limit: 2},
		}
		if prefix && y > 0 && (all || y+6 <= coldCap) {
			grid = append(grid,
				Request{Limit: y},                      // ends on the first cluster's last embedding
				Request{Limit: y + 1},                  // one past it
				Request{Offset: max(y-1, 0), Limit: 3}, // a page that crosses it
				Request{CountOnly: true, Limit: y + 1}, // a bounded count that crosses it
				Request{Offset: y + 2, Limit: 4},       // wholly past it
			)
		}
		grid = append(grid, Request{}) // the default page
		if all {
			grid = append(grid, Request{CountOnly: true}) // everything, counted
		}
		for _, order := range []string{"small-then-deep", "deep-then-small"} {
			eng := New(data, Options{Workers: 1, MaxLimit: maxLimit})
			for i, req := range grid {
				req.Query = q
				resp, err := eng.Query(context.Background(), req)
				if err != nil {
					t.Fatalf("%s %s offset %d limit %d: %v", name, order, req.Offset, req.Limit, err)
				}
				if err := checkWindow(req, resp, cold, perm, maxLimit); err != nil {
					t.Errorf("%s %s offset %d limit %d count_only %v (cache hit %v): %v",
						name, order, req.Offset, req.Limit, req.CountOnly, resp.CacheHit, err)
				}
				if i == 0 && order == "small-then-deep" && prefix && y > 0 && eng.Builds() != 1 {
					t.Errorf("%s: a page of one took %d builds where the first cluster holds %d embeddings", name, eng.Builds(), y)
				}
			}
			if b, s := eng.Builds(), eng.CacheStats(); b > 2 || s.Grown > 1 || int64(s.Entries) != 1 {
				t.Errorf("%s %s: %d builds, %d replacements, %d entries for one class", name, order, b, s.Grown, s.Entries)
			} else if order == "small-then-deep" && s.Grown == 1 {
				crossed++
			} else if order == "small-then-deep" {
				stayed++
			}
			slices.Reverse(grid)
		}
	}
	gen.ForEachGoldenPair(check)
	// A dense pair with few labels: hundreds of embeddings per cluster.
	dense := gen.WithRandomLabels(gen.ErdosRenyi(200, 1800, 9), 2, 3)
	check("dense-cycle", dense, cycleQuery(t, 0, 1, 0, 1), 1)
	if crossed == 0 || stayed == 0 {
		t.Errorf("%d classes grew their entry and %d never had to: the grid exercised one path only", crossed, stayed)
	}
}

// TestConcurrentNeedsShareBuilds: two needs on one class at once — a page
// of one and a count of everything — cost the class's two builds at most,
// whichever request leads which build and whichever follows, and both get
// the cold match's answer. Run under -race.
func TestConcurrentNeedsShareBuilds(t *testing.T) {
	data := testData()
	q := pathQuery(t, 3, 1, 2, 0)
	cold, _, perm := coldForm(t, data, q)
	reqs := []Request{{Query: q, Limit: 1}, {Query: q, CountOnly: true}, {Query: q, Limit: 1 << 20}}
	for round := 0; round < 20; round++ {
		eng := New(data, Options{Workers: 1, MaxConcurrent: len(reqs), MaxLimit: 1 << 20})
		var wg sync.WaitGroup
		errs := make(chan error, len(reqs))
		for _, req := range reqs {
			wg.Add(1)
			go func(req Request) {
				defer wg.Done()
				resp, err := eng.Query(context.Background(), req)
				if err == nil {
					err = checkWindow(req, resp, cold, perm, 1<<20)
				}
				if err != nil {
					errs <- fmt.Errorf("limit %d count_only %v: %v", req.Limit, req.CountOnly, err)
				}
			}(req)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		if b := eng.Builds(); b > 2 {
			t.Fatalf("round %d: %d builds for one class", round, b)
		}
		if s := eng.CacheStats(); s.Entries != 1 || s.UsedBytes > s.BudgetBytes {
			t.Fatalf("round %d: %+v", round, s)
		}
	}
}

// TestTwoStepTelemetry: a request that took both builds reports both. Its
// BuildTime, the flight record's BuildUS and the Server-Timing build entry
// are one number that holds the two build spans; each build span says how
// many of the class's clusters its index covers; and the replacement shows
// as grown at /cachez and in the cache source of /metrics.json.
func TestTwoStepTelemetry(t *testing.T) {
	reg := obs.NewRegistry()
	eng := New(testData(), Options{Workers: 1, Tracer: obs.NewTracer(obs.TracerOptions{}), Registry: reg})
	srv := httptest.NewServer(eng.Handler())
	defer srv.Close()

	resp, err := eng.Query(context.Background(), Request{Query: pathQuery(t, 1, 2, 3)})
	if err != nil {
		t.Fatal(err)
	}
	if resp.CacheHit || eng.Builds() != 2 {
		t.Fatalf("hit=%v with %d builds: the default page of this class takes two", resp.CacheHit, eng.Builds())
	}
	var builds []*obs.SpanNode
	var spanned time.Duration
	for _, root := range resp.Spans.Nodes() {
		for _, c := range root.Children {
			if c.Name == "build" {
				builds = append(builds, c)
				spanned += time.Duration(c.DurUS) * time.Microsecond
			}
		}
	}
	if len(builds) != 2 {
		t.Fatalf("%d build spans under the request's root, want 2", len(builds))
	}
	total := builds[1].Attrs["pivots_total"]
	if builds[0].Attrs["pivots_covered"] != "1" || builds[0].Attrs["pivots_total"] != total ||
		builds[1].Attrs["pivots_covered"] != total || total == "" || total == "1" {
		t.Errorf("build spans cover %q of %q, then %q of %q: want 1 of n, then n of n",
			builds[0].Attrs["pivots_covered"], builds[0].Attrs["pivots_total"], builds[1].Attrs["pivots_covered"], total)
	}
	// Span durations are truncated to the microsecond, one by one.
	if resp.BuildTime+2*time.Microsecond < spanned {
		t.Errorf("BuildTime %v is less than the %v its two build spans took", resp.BuildTime, spanned)
	}
	if rec := eng.Flight().Recent()[0]; rec.BuildUS != resp.BuildTime.Microseconds() || rec.CacheHit {
		t.Errorf("flight record says build %d us, cache hit %v; the response %d us", rec.BuildUS, rec.CacheHit, resp.BuildTime.Microseconds())
	}
	if st, want := serverTiming(eng, resp), string(appendDur(nil, "build", resp.BuildTime)); !strings.Contains(st, want) {
		t.Errorf("Server-Timing %q does not carry %q", st, want)
	}

	cz, err := NewClient(srv.URL, srv.Client()).Cachez(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if cz.Grown != 1 || cz.Entries != 1 || cz.Misses != 2 || cz.Hits != 0 {
		t.Errorf("/cachez after one two-step request: %+v", cz)
	}
	body, _ := httpGet(t, srv, "/metrics.json")
	var doc struct {
		Sources map[string]map[string]int64 `json:"sources"`
	}
	if err := json.Unmarshal(body, &doc); err != nil {
		t.Fatal(err)
	}
	if got, ok := doc.Sources["cache"]["grown"]; !ok || got != 1 {
		t.Errorf("/metrics.json cache source: %v", doc.Sources["cache"])
	}
}
