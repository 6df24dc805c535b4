package enum_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"sort"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ceci"
	icec "ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
)

// The tests below keep the names they had when they checked the
// per-cluster driver (ForEachIncremental, deleted in PR 29) and check what
// replaced it: a ceci.Match under Options.Limit, which indexes the first
// embedding cluster of the root's ascending candidates and completes the
// index when a call comes up short — a global limit across that growth,
// early stop, empty results, a single cluster, and equality with the
// complete index. The concurrent and page-level checks are the root
// package's TestLimitedMatch* tests.

// buildLog counts the index builds a tracer sees (a "build" span
// opening) and calls onBuild, when set, with each one's number.
type buildLog struct {
	n       atomic.Int64
	onBuild func(n int64)
}

// onStart is the tracer's start hook (TracerOptions.OnStart).
func (b *buildLog) onStart(name string) {
	if name != "build" {
		return
	}
	if n := b.n.Add(1); b.onBuild != nil {
		b.onBuild(n)
	}
}

// limited matches query under opts (Options.Limit set by the caller) with
// a tracer logging its builds to log.
func limited(t *testing.T, data, query *graph.Graph, opts ceci.Options, log *buildLog) *ceci.Matcher {
	t.Helper()
	opts.Tracer = ceci.NewTracer(ceci.TracerOptions{OnStart: log.onStart})
	m, err := ceci.Match(data, query, &opts)
	if err != nil {
		t.Fatal(err)
	}
	return m
}

// firstCluster counts the embeddings of the first cluster of the query's
// ascending root candidates: what a limited Match's prefix index holds.
func firstCluster(t *testing.T, data, query *graph.Graph) int64 {
	t.Helper()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	pivots := tree.Filter(data).Candidates(tree.Root)
	if len(pivots) == 0 {
		return 0
	}
	ix := icec.Build(data, tree, icec.Options{Pivots: pivots[:1]})
	return enum.NewMatcher(ix, enum.Options{Workers: 1}).Count()
}

func count(t *testing.T, data, query *graph.Graph, opts *ceci.Options) int64 {
	t.Helper()
	n, err := ceci.Count(data, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestIncrementalMatchesMonolithic: a limited Match whose limit is past the
// total grows its index and counts exactly what the complete index does,
// across random labeled graphs and worker counts.
func TestIncrementalMatchesMonolithic(t *testing.T) {
	rng := rand.New(rand.NewSource(121))
	for trial := 0; trial < 40; trial++ {
		data := randomGraph(rng, 12+rng.Intn(10), 25+rng.Intn(30), 1+rng.Intn(3))
		query, err := gen.DFSQuery(data, 2+rng.Intn(4), rng)
		if err != nil {
			continue
		}
		want := count(t, data, query, &ceci.Options{Workers: 1})
		for _, workers := range []int{1, 4} {
			if got := count(t, data, query, &ceci.Options{Workers: workers, Limit: want + 1}); got != want {
				t.Fatalf("trial %d w=%d: limited %d != complete %d", trial, workers, got, want)
			}
		}
	}
}

// TestIncrementalLimit: a limit past what the first cluster holds is met
// exactly across the growth — the prefix's embeddings plus what is left of
// the limit from the clusters after it — with two builds, and the matcher
// then holds the complete index: a second call builds nothing.
func TestIncrementalLimit(t *testing.T) {
	data, query := gen.Kronecker(9, 8, 3), gen.QG1()
	limit := firstCluster(t, data, query) + 77
	if total := count(t, data, query, nil); limit >= total {
		t.Fatalf("fixture: limit %d leaves nothing past it (total %d)", limit, total)
	}
	for _, workers := range []int{1, 4} {
		log := &buildLog{}
		m := limited(t, data, query, ceci.Options{Workers: workers, Limit: limit}, log)
		for call := 1; call <= 2; call++ {
			if got := m.Count(); got != limit {
				t.Fatalf("w=%d call %d: limited count = %d, want %d", workers, call, got, limit)
			}
			if n := log.n.Load(); n != 2 {
				t.Fatalf("w=%d call %d: %d builds, want the prefix and the complete index", workers, call, n)
			}
		}
	}
}

// TestIncrementalEarlyStop: a consumer that stops inside the first cluster
// gets exactly what it asked for, and the index does not grow.
func TestIncrementalEarlyStop(t *testing.T) {
	data, query := gen.Kronecker(9, 8, 3), gen.QG1()
	stopAt := min(9, firstCluster(t, data, query))
	if stopAt == 0 {
		t.Fatal("fixture: the first cluster is empty")
	}
	log := &buildLog{}
	m := limited(t, data, query, ceci.Options{Workers: 1, Limit: 1 << 40}, log)
	var calls int64
	m.ForEach(func([]ceci.VertexID) bool {
		calls++
		return calls < stopAt
	})
	if calls != stopAt {
		t.Fatalf("callback ran %d times, want %d", calls, stopAt)
	}
	if n := log.n.Load(); n != 1 {
		t.Fatalf("%d builds after a consumer stop, want the prefix's only", n)
	}
}

// labelAbsent is a query of n vertices on a path whose label the Fig. 1
// data graph does not have: no root candidate at all.
func labelAbsent(n int, label graph.Label) *graph.Graph {
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		b.SetLabel(graph.VertexID(v), label)
	}
	for v := 1; v < n; v++ {
		b.AddEdge(graph.VertexID(v-1), graph.VertexID(v))
	}
	return b.MustBuild()
}

// TestIncrementalEmptyResult: with no root candidate the index is complete
// from the start — one build, whatever reads it afterwards.
func TestIncrementalEmptyResult(t *testing.T) {
	log := &buildLog{}
	m := limited(t, gen.Fig1Data(), labelAbsent(2, 99), ceci.Options{Limit: 5}, log)
	if got := m.Count(); got != 0 {
		t.Fatalf("count = %d, want 0", got)
	}
	if info := m.IndexInfo(); info.Pivots != 0 || log.n.Load() != 1 {
		t.Fatalf("index %+v after %d builds, want no pivots and one build", info, log.n.Load())
	}
}

// collectEmbeddings gathers an enumeration into a sorted, comparable set
// of embedding encodings (safe under concurrent callbacks).
func collectEmbeddings(forEach func(fn func([]graph.VertexID) bool)) []string {
	var mu sync.Mutex
	var out []string
	forEach(func(emb []graph.VertexID) bool {
		mu.Lock()
		out = append(out, fmt.Sprint(emb))
		mu.Unlock()
		return true
	})
	sort.Strings(out)
	return out
}

func matchSet(t *testing.T, data, query *graph.Graph, opts *ceci.Options) []string {
	t.Helper()
	m, err := ceci.Match(data, query, opts)
	if err != nil {
		t.Fatal(err)
	}
	return collectEmbeddings(m.ForEach)
}

func equalStrings(t *testing.T, what string, want, got []string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d embeddings, complete index %d", what, len(got), len(want))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("%s: embedding %d differs: complete %s, limited %s", what, i, want[i], got[i])
		}
	}
}

// TestIncrementalMatchesBatchEmbeddings: on 20 seeded pairs a limited
// Match that must grow delivers the complete index's embeddings exactly —
// not merely as many.
func TestIncrementalMatchesBatchEmbeddings(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		data, query := gen.RandomPair(seed)
		batch := matchSet(t, data, query, &ceci.Options{Workers: 2})
		for _, workers := range []int{1, 3} {
			got := matchSet(t, data, query, &ceci.Options{Workers: workers, Limit: int64(len(batch)) + 1})
			equalStrings(t, fmt.Sprintf("seed %d w=%d", seed, workers), batch, got)
		}
	}
}

// TestIncrementalEmptyMatchesBatch: the no-embedding case agrees
// embedding-for-embedding too (both sides empty).
func TestIncrementalEmptyMatchesBatch(t *testing.T) {
	data, query := gen.Fig1Data(), labelAbsent(3, 77)
	batch := matchSet(t, data, query, nil)
	got := matchSet(t, data, query, &ceci.Options{Limit: 1})
	if len(batch) != 0 || len(got) != 0 {
		t.Fatalf("want empty results, got complete %d limited %d", len(batch), len(got))
	}
}

// TestIncrementalSingleCluster: a root with exactly one candidate (a
// uniquely-labeled vertex) puts the whole enumeration in one embedding
// cluster, so the limited Match's first index is already complete: one
// build, and the embeddings of the unlimited Match.
func TestIncrementalSingleCluster(t *testing.T) {
	// Data: a star of B-labeled leaves around the only A-labeled hub,
	// with a cycle through the leaves for non-tree edges.
	b := graph.NewBuilder(7)
	b.SetLabel(0, 0) // the unique A
	for v := graph.VertexID(1); v < 7; v++ {
		b.SetLabel(v, 1)
		b.AddEdge(0, v)
	}
	for v := graph.VertexID(1); v < 6; v++ {
		b.AddEdge(v, v+1)
	}
	data := b.MustBuild()

	qb := graph.NewBuilder(3)
	qb.SetLabel(0, 0)
	qb.SetLabel(1, 1)
	qb.SetLabel(2, 1)
	qb.AddEdge(0, 1)
	qb.AddEdge(0, 2)
	qb.AddEdge(1, 2)
	query := qb.MustBuild()

	// The cost rule roots the tree at the A-labeled query vertex: it has
	// exactly one data candidate.
	batch := matchSet(t, data, query, &ceci.Options{Workers: 2})
	if len(batch) == 0 {
		t.Fatal("expected embeddings in the single-cluster case")
	}
	log := &buildLog{}
	m := limited(t, data, query, ceci.Options{Workers: 2, Limit: int64(len(batch)) + 1}, log)
	if info := m.IndexInfo(); info.Pivots != 1 {
		t.Fatalf("pivots = %d, want exactly 1 cluster", info.Pivots)
	}
	equalStrings(t, "single cluster", batch, collectEmbeddings(m.ForEach))
	if n := log.n.Load(); n != 1 {
		t.Fatalf("%d builds, want one: the first cluster is every cluster", n)
	}
}

// TestIncrementalCancellation: a context cancelled inside the build that
// grows a limited matcher (the tracer's log cancels it as the second build
// opens) returns the context's error and the partial count — the prefix's
// embeddings and nothing past them — and the next call grows the index and
// counts everything. A cancel raised by the consumer while the first
// cluster is enumerated returns the context's error and builds nothing.
func TestIncrementalCancellation(t *testing.T) {
	data := gen.ErdosRenyi(300, 2400, 7)
	qb := graph.NewBuilder(3)
	qb.AddEdge(0, 1)
	qb.AddEdge(1, 2)
	query := qb.MustBuild()
	total, first := count(t, data, query, nil), firstCluster(t, data, query)

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	log := &buildLog{onBuild: func(n int64) {
		if n == 2 {
			cancel()
			// Let the build's context watcher see it before the build
			// goes on (it runs on its own goroutine).
			time.Sleep(5 * time.Millisecond)
		}
	}}
	m := limited(t, data, query, ceci.Options{Workers: 4, Limit: total + 1}, log)
	n, err := m.CountCtx(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("CountCtx error = %v, want context.Canceled", err)
	}
	if n != first {
		t.Fatalf("partial count %d, want the first cluster's %d", n, first)
	}
	if got := m.Count(); got != total {
		t.Fatalf("count after the cancelled growth = %d, want %d", got, total)
	}
	t.Logf("builds: %d (3 when the cancel landed inside the growth build)", log.n.Load())

	ctx, cancel = context.WithCancel(context.Background())
	defer cancel()
	log = &buildLog{}
	m = limited(t, data, query, ceci.Options{Workers: 4, Limit: total + 1}, log)
	var delivered atomic.Int64
	err = m.ForEachCtx(ctx, func([]ceci.VertexID) bool {
		if delivered.Add(1) == 1 {
			cancel()
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx error = %v, want context.Canceled", err)
	}
	if d, n := delivered.Load(), log.n.Load(); d < 1 || d > first || n != 1 {
		t.Fatalf("delivered %d (first cluster %d) after %d builds: a cancel grew the index", d, first, n)
	}
}
