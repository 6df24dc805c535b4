package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	ceciroot "ceci"
	"ceci/internal/auto"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/verify"
)

// testData is a labeled random graph shared by the service tests.
func testData() *graph.Graph {
	return gen.WithRandomLabels(gen.ErdosRenyi(400, 2400, 11), 4, 23)
}

// pathQuery builds a labeled path query of the given labels.
func pathQuery(t *testing.T, labels ...graph.Label) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(len(labels))
	for v, l := range labels {
		b.SetLabel(graph.VertexID(v), l)
	}
	for v := 0; v+1 < len(labels); v++ {
		b.AddEdge(graph.VertexID(v), graph.VertexID(v+1))
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// coldSet enumerates query against data with a fresh cold build and
// returns the canonical embedding set (the differential oracle).
func coldSet(t *testing.T, data, query *graph.Graph) []string {
	t.Helper()
	m, err := ceciroot.Match(data, query, &ceciroot.Options{Workers: 1})
	if err != nil {
		t.Fatalf("cold match: %v", err)
	}
	return verify.CanonicalSet(m.Collect(), auto.Compute(query))
}

// TestQueryDifferentialVsColdBuild: engine results must match a cold
// ceci.Match build embedding-for-embedding (canonicalized through the
// internal/verify oracle), for several distinct queries.
func TestQueryDifferentialVsColdBuild(t *testing.T) {
	data := testData()
	eng := New(data, Options{MaxLimit: 1 << 20})
	queries := []*graph.Graph{
		pathQuery(t, 0, 1),
		pathQuery(t, 1, 2, 3),
		pathQuery(t, 0, 2, 0),
		pathQuery(t, 3, 1, 2, 0),
	}
	for i, q := range queries {
		resp, err := eng.Query(context.Background(), Request{Query: q})
		if err != nil {
			t.Fatalf("query %d: %v", i, err)
		}
		got := verify.CanonicalSet(resp.Page.Rows(), auto.Compute(q))
		want := coldSet(t, data, q)
		if len(got) != len(want) {
			t.Fatalf("query %d: %d embeddings, cold build found %d", i, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("query %d: embedding sets diverge at %d: %q vs %q", i, j, got[j], want[j])
			}
		}
	}
}

// TestCacheHitSkipsBuild: a class costs at most two index builds between
// evictions — its first cluster, then every cluster when that one does not
// fill the window — and none once its entry covers the request: the second
// identical query must hit the cache and perform zero additional builds,
// returning identical results.
func TestCacheHitSkipsBuild(t *testing.T) {
	data := testData()
	eng := New(data, Options{MaxLimit: 1 << 20})
	q := pathQuery(t, 1, 2, 3)

	first, err := eng.Query(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	built := eng.Builds()
	if first.CacheHit || built < 1 || built > 2 {
		t.Fatalf("first query: hit=%v builds=%d, want miss and 1 or 2 builds", first.CacheHit, built)
	}
	second, err := eng.Query(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if !second.CacheHit {
		t.Error("second query missed the cache")
	}
	if eng.Builds() != built {
		t.Errorf("builds = %d after a repeat query, want the %d of the first", eng.Builds(), built)
	}
	if second.Count != first.Count {
		t.Errorf("counts differ across hit: %d vs %d", second.Count, first.Count)
	}
	// Same stored index, identity remap: sets are bit-identical.
	got := verify.CanonicalSet(second.Page.Rows(), nil)
	want := verify.CanonicalSet(first.Page.Rows(), nil)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("hit embeddings differ from cold at %d", i)
		}
	}
}

// TestIsomorphicQueryHitsCache: a vertex-permuted copy of a cached query
// must hit (canonical keys are isomorphism invariants) and its
// embeddings, after the engine's remap, must equal a cold build on the
// permuted query itself.
func TestIsomorphicQueryHitsCache(t *testing.T) {
	data := testData()
	eng := New(data, Options{MaxLimit: 1 << 20})
	q := pathQuery(t, 3, 1, 2, 0)

	if _, err := eng.Query(context.Background(), Request{Query: q}); err != nil {
		t.Fatal(err)
	}
	built := eng.Builds()
	for seed := int64(1); seed <= 5; seed++ {
		perm, _ := gen.PermuteVertices(q, gen.NewRNG(seed))
		resp, err := eng.Query(context.Background(), Request{Query: perm})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		if !resp.CacheHit {
			t.Fatalf("seed %d: permuted query missed the cache", seed)
		}
		got := verify.CanonicalSet(resp.Page.Rows(), auto.Compute(perm))
		want := coldSet(t, data, perm)
		if len(got) != len(want) {
			t.Fatalf("seed %d: %d embeddings via remap, cold build found %d", seed, len(got), len(want))
		}
		for j := range got {
			if got[j] != want[j] {
				t.Fatalf("seed %d: remapped set diverges at %d", seed, j)
			}
		}
	}
	if built > 2 || eng.Builds() != built {
		t.Errorf("builds = %d after the first query, %d after its permutations: want at most 2, then no more (all permutations should share one entry)", built, eng.Builds())
	}
}

// TestDeadlinePromptOnCachedHeavyQuery: with the index already cached, a
// 1ms-deadline request on a heavy query must return promptly with
// DeadlineExceeded and a partial response — the acceptance criterion for
// deadline-aware cancellation.
func TestDeadlinePromptOnCachedHeavyQuery(t *testing.T) {
	data := gen.ErdosRenyi(2000, 24000, 3) // unlabeled: huge path count
	eng := New(data, Options{MaxLimit: 1 << 20, DefaultTimeout: time.Minute})
	q := pathQuery(t, 0, 0, 0, 0)

	// Populate the cache without enumerating everything: a count no one
	// cluster reaches leaves the class's complete entry behind, which is
	// the one an unbounded count is answered from.
	warm, err := eng.Query(context.Background(), Request{Query: q, CountOnly: true, Limit: 1 << 19})
	if err != nil {
		t.Fatalf("warm-up: %v", err)
	}
	built := eng.Builds()
	if warm.CacheHit || warm.Count != 1<<19 || built != 2 {
		t.Fatalf("warm-up: hit=%v count=%d builds=%d, want a miss that counts %d over the class's two builds", warm.CacheHit, warm.Count, built, 1<<19)
	}

	start := time.Now()
	resp, err := eng.Query(context.Background(), Request{Query: q, CountOnly: true, Timeout: time.Millisecond})
	elapsed := time.Since(start)
	if err == nil {
		t.Skipf("host counted %d paths inside 1ms; nothing to assert", resp.Count)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("error = %v, want DeadlineExceeded", err)
	}
	if resp == nil || !resp.Partial {
		t.Fatalf("response = %+v, want partial response alongside the error", resp)
	}
	if !resp.CacheHit || eng.Builds() != built {
		t.Errorf("deadline request: hit=%v, %d builds after the warm-up's %d: the complete entry should have answered it (build skipped)", resp.CacheHit, eng.Builds(), built)
	}
	if elapsed > 2*time.Second {
		t.Errorf("deadline took %v to fire, want prompt return", elapsed)
	}
}

// TestAdmissionShedsWhenSaturated: with one worker slot and one queue
// slot both occupied, the next request must be shed with ErrOverloaded
// instead of waiting.
func TestAdmissionShedsWhenSaturated(t *testing.T) {
	data := testData()
	eng := New(data, Options{MaxConcurrent: 1, QueueDepth: 1, DefaultTimeout: 5 * time.Second})
	q := pathQuery(t, 0, 1)

	// Occupy the single worker slot directly, park one request in the
	// queue, then check the next one bounces.
	eng.sem <- struct{}{}
	queuedErr := make(chan error, 1)
	go func() {
		_, err := eng.Query(context.Background(), Request{Query: q, CountOnly: true})
		queuedErr <- err
	}()
	deadline := time.Now().Add(5 * time.Second)
	for eng.waiting.Load() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("queued request never started waiting")
		}
		time.Sleep(time.Millisecond)
	}

	_, err := eng.Query(context.Background(), Request{Query: q, CountOnly: true})
	if !errors.Is(err, ErrOverloaded) {
		t.Fatalf("saturated engine returned %v, want ErrOverloaded", err)
	}

	<-eng.sem // free the slot; the queued request proceeds
	if err := <-queuedErr; err != nil {
		t.Fatalf("queued request failed after slot freed: %v", err)
	}
}

// TestConcurrentStress hammers one engine from many goroutines with a
// mix of cache hits, misses, tiny deadlines, and limits — meant to run
// under -race. Successful responses must report the exact cold-build
// count for their query.
func TestConcurrentStress(t *testing.T) {
	data := testData()
	eng := New(data, Options{MaxConcurrent: 4, QueueDepth: 64, MaxLimit: 1 << 20})

	queries := []*graph.Graph{
		pathQuery(t, 0, 1),
		pathQuery(t, 1, 2, 3),
		pathQuery(t, 2, 0),
		pathQuery(t, 3, 1, 2),
	}
	want := make([]int64, len(queries))
	for i, q := range queries {
		n, err := ceciroot.Count(data, q, &ceciroot.Options{Workers: 1})
		if err != nil {
			t.Fatal(err)
		}
		want[i] = n
	}

	const goroutines = 16
	const iters = 8
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				qi := (g + i) % len(queries)
				req := Request{Query: queries[qi], CountOnly: true}
				switch (g + i) % 4 {
				case 1:
					req.Timeout = time.Millisecond // may or may not expire
				case 2:
					req.Limit = 3
					req.CountOnly = false
				}
				resp, err := eng.Query(context.Background(), req)
				switch {
				case err == nil:
					if req.Limit == 0 && resp.Count != want[qi] {
						errs <- fmt.Errorf("query %d: count %d, want %d", qi, resp.Count, want[qi])
					}
					if req.Limit == 3 && int64(len(resp.Page.Rows())) > 3 {
						errs <- fmt.Errorf("limit 3 returned %d embeddings", len(resp.Page.Rows()))
					}
				case errors.Is(err, context.DeadlineExceeded) && req.Timeout > 0:
					// expected possibility for the 1ms requests
				case errors.Is(err, ErrOverloaded):
					// acceptable under saturation
				default:
					errs <- fmt.Errorf("query %d: unexpected error %v", qi, err)
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if b := eng.Builds(); b > 2*int64(len(queries)) {
		t.Errorf("builds = %d, want <= %d, two per class (singleflight should coalesce)", b, 2*len(queries))
	}
}

// TestBadQueries: validation failures surface as ErrBadQuery.
func TestBadQueries(t *testing.T) {
	eng := New(testData(), Options{})
	cases := []Request{
		{Query: nil},
		{Query: pathQuery(t, 0, 1), Limit: -1},
		{Query: pathQuery(t, 0, 1), Offset: -2},
		// A window whose end wraps: enumeration would read the negative
		// sum as "no limit" and count everything for a page of one.
		{Query: pathQuery(t, 0, 1), Offset: math.MaxInt64, Limit: 1},
		{Query: pathQuery(t, 0, 1), Offset: math.MaxInt64 - 5, Limit: 6, CountOnly: true},
		{Query: pathQuery(t, 0, 1), Offset: math.MaxInt64 - 9999}, // no limit means the max, 10000
	}
	for i, req := range cases {
		if _, err := eng.Query(context.Background(), req); !errors.Is(err, ErrBadQuery) {
			t.Errorf("case %d: error = %v, want ErrBadQuery", i, err)
		}
	}
}

// TestHugeLabelCostsItsLength: a label is any value up to
// graph.MaxLabelValue, and a query graph is built from the body before
// admission and again for its canonical form, so what one vertex with the
// largest label costs must follow the body's length, not the label's
// value (a label index keyed by value made this request 384 MB).
func TestHugeLabelCostsItsLength(t *testing.T) {
	const body = `{"labels":[16777216]}`
	h := New(testData(), Options{Workers: 1}).Handler()
	post := func() *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/query", strings.NewReader(body)))
		return rec
	}
	post() // the engine's first request pays for lazily built state
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	rec := post()
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<20 {
		t.Errorf("a %d-byte request allocated %d bytes", len(body), got)
	}
	var reply QueryResponse
	if err := json.Unmarshal(rec.Body.Bytes(), &reply); err != nil {
		t.Fatalf("reply %q: %v", rec.Body, err)
	}
	if rec.Code != http.StatusOK || reply.Count != 0 || reply.Error != "" {
		t.Fatalf("status %d, reply %+v: want 200 with count 0", rec.Code, reply)
	}
}

// TestOffsetPagination: with Workers=1 enumeration is deterministic, so
// two pages must partition the full result prefix.
func TestOffsetPagination(t *testing.T) {
	data := testData()
	eng := New(data, Options{Workers: 1, MaxLimit: 1 << 20})
	q := pathQuery(t, 1, 2, 3)

	full, err := eng.Query(context.Background(), Request{Query: q})
	if err != nil {
		t.Fatal(err)
	}
	if full.Page.Len() < 4 {
		t.Skipf("only %d embeddings; pagination needs a few", full.Page.Len())
	}
	page1, err := eng.Query(context.Background(), Request{Query: q, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	page2, err := eng.Query(context.Background(), Request{Query: q, Limit: 2, Offset: 2})
	if err != nil {
		t.Fatal(err)
	}
	if page1.Page.Len() != 2 || page2.Page.Len() != 2 {
		t.Fatalf("page sizes %d/%d, want 2/2", page1.Page.Len(), page2.Page.Len())
	}
	all, rows1, rows2 := full.Page.Rows(), page1.Page.Rows(), page2.Page.Rows()
	for i := 0; i < 2; i++ {
		for u := range all[i] {
			if rows1[i][u] != all[i][u] {
				t.Fatalf("page1[%d] diverges from full enumeration", i)
			}
			if rows2[i][u] != all[i+2][u] {
				t.Fatalf("page2[%d] diverges from full enumeration", i)
			}
		}
	}
}

// TestMultiWorkerQueryRunsFGD: the engine enumerates with the library's
// default strategy, FGD, not enum.Options' zero value, ST — which splits
// clusters statically across a multi-worker query's workers.
func TestMultiWorkerQueryRunsFGD(t *testing.T) {
	eng := New(testData(), Options{Workers: 2, Tracer: obs.NewTracer(obs.TracerOptions{})})
	resp, err := eng.Query(context.Background(), Request{Query: pathQuery(t, 1, 2, 3), CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	var strategies []string
	var walk func([]*obs.SpanNode)
	walk = func(ns []*obs.SpanNode) {
		for _, n := range ns {
			if n.Name == "enumerate" {
				strategies = append(strategies, n.Attrs["strategy"])
			}
			walk(n.Children)
		}
	}
	walk(resp.Spans.Nodes())
	if len(strategies) == 0 {
		t.Fatal("no enumerate span in the query's trace")
	}
	for _, s := range strategies {
		if s != "FGD" {
			t.Fatalf("enumerate spans ran %v, want FGD", strategies)
		}
	}
}

// expiresOnRelease is a leader's context whose deadline passes the
// moment release closes: Err blocks until then, so a build that checks
// it first is held in flight until the test lets it fail.
type expiresOnRelease struct {
	context.Context
	started chan struct{} // closed at the first Err call
	once    sync.Once
	release <-chan struct{}
}

func (c *expiresOnRelease) Done() <-chan struct{} { return c.release }

func (c *expiresOnRelease) Err() error {
	c.once.Do(func() { close(c.started) })
	<-c.release
	return context.DeadlineExceeded
}

// signalsWait is a live context that reports, by closing waiting, the
// first time anyone asks for its Done channel: getIndex does that only
// to wait on a build in flight.
type signalsWait struct {
	context.Context
	once    sync.Once
	waiting chan struct{}
}

func (c *signalsWait) Done() <-chan struct{} {
	c.once.Do(func() { close(c.waiting) })
	return c.Context.Done()
}

// TestFollowerRetriesAfterLeaderDeadline: a follower whose leader's build
// died on the leader's own deadline does not inherit that error while its
// own deadline is alive. It retries, becomes the leader, and answers the
// full count. The order is fixed by the contexts, not by the scheduler:
// the leader's build is held at its first deadline check until the
// follower waits on it.
func TestFollowerRetriesAfterLeaderDeadline(t *testing.T) {
	data := testData()
	q := pathQuery(t, 1, 2, 3)
	want, err := ceciroot.Count(data, q, nil)
	if err != nil {
		t.Fatal(err)
	}
	eng := New(data, Options{})
	newClass := func() *class {
		cl := &class{query: q}
		cl.key, cl.perm = verify.CanonicalGraph(q)
		return cl
	}
	follower := &signalsWait{Context: context.Background(), waiting: make(chan struct{})}
	leader := &expiresOnRelease{Context: context.Background(), started: make(chan struct{}), release: follower.waiting}

	leaderErr := make(chan error, 1)
	go func() {
		_, _, _, err := eng.getIndex(leader, newClass(), everyPivot)
		leaderErr <- err
	}()
	<-leader.started // the leader's call is in flight
	cl := newClass()
	ent, _, _, err := eng.getIndex(follower, cl, everyPivot)
	if lerr := <-leaderErr; !errors.Is(lerr, context.DeadlineExceeded) {
		t.Fatalf("leader's build returned %v, want its deadline", lerr)
	}
	if err != nil {
		t.Fatalf("follower with a live deadline got %v, want a retry", err)
	}
	resp := &Response{}
	if err := eng.enumerate(context.Background(), ent, cl.perm, Request{Query: q, CountOnly: true}, 0, nil, resp); err != nil {
		t.Fatal(err)
	}
	if resp.Count != want || ent.covered != everyPivot {
		t.Fatalf("follower answered %d from coverage %d, want the full count %d", resp.Count, ent.covered, want)
	}
	if b := eng.Builds(); b != 1 {
		t.Fatalf("builds = %d, want 1: the follower's", b)
	}
}
