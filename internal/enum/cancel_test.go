package enum

import (
	"context"
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/stats"
)

// heavyMatcher builds a matcher over an unlabeled-ish pair with far more
// embeddings than the tests consume, so a cancel always lands mid-run.
func heavyMatcher(t *testing.T, opts Options) *Matcher {
	return pathMatcher(t, 3, opts) // thousands of embeddings
}

// pathMatcher matches the n-vertex path on a 300-vertex random graph of
// average degree 16: about 36 000 embeddings at n = 3 and 16 times more
// for every further vertex.
func pathMatcher(t *testing.T, n int, opts Options) *Matcher {
	t.Helper()
	data := gen.ErdosRenyi(300, 2400, 7)
	qb := graph.NewBuilder(n)
	for u := 1; u < n; u++ {
		qb.AddEdge(graph.VertexID(u-1), graph.VertexID(u))
	}
	query, err := qb.Build()
	if err != nil {
		t.Fatalf("query build: %v", err)
	}
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	ix := ceci.Build(data, tree, ceci.Options{})
	return NewMatcher(ix, opts)
}

// TestCancelMidEnumerationConsistentStats cancels an enumeration from
// inside the consumer callback and checks the counters are not torn:
// Stats.Embeddings must equal the number of callback invocations exactly
// — a cancelled or limit-stopped run must never report embeddings its
// consumer did not receive. Runs with several workers so it exercises the
// racing-reservation path under -race.
func TestCancelMidEnumerationConsistentStats(t *testing.T) {
	st := &stats.Counters{}
	m := heavyMatcher(t, Options{Workers: 4, Stats: st})

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var delivered atomic.Int64
	err := m.ForEachCtx(ctx, func([]graph.VertexID) bool {
		if delivered.Add(1) >= 100 {
			cancel()
			// The cancel watcher (context.AfterFunc) runs on its own
			// goroutine; throttle post-cancel deliveries so enumeration
			// cannot finish the whole graph before the stop flag lands.
			<-ctx.Done()
			time.Sleep(200 * time.Microsecond)
		}
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("ForEachCtx error = %v, want context.Canceled", err)
	}
	got, want := st.Embeddings.Load(), delivered.Load()
	if got != want {
		t.Errorf("Stats.Embeddings = %d, want %d (callback invocations)", got, want)
	}
	if want < 100 {
		t.Errorf("delivered %d embeddings before cancel, want >= 100", want)
	}
}

// TestLimitStopConsistentStats checks the same invariant on the Limit
// path: with racing workers reserving slots past the cap, exactly Limit
// embeddings are delivered and exactly Limit are counted.
func TestLimitStopConsistentStats(t *testing.T) {
	const limit = 57
	st := &stats.Counters{}
	m := heavyMatcher(t, Options{Workers: 4, Limit: limit, Stats: st})

	var delivered atomic.Int64
	m.ForEach(func([]graph.VertexID) bool {
		delivered.Add(1)
		return true
	})
	if got := delivered.Load(); got != limit {
		t.Errorf("delivered %d embeddings, want exactly %d", got, limit)
	}
	if got := st.Embeddings.Load(); got != limit {
		t.Errorf("Stats.Embeddings = %d, want exactly %d", got, limit)
	}
}

// TestDeadlineMidEnumeration drives the deadline path: a context that
// expires mid-run must stop the enumeration promptly and surface
// DeadlineExceeded, with the partial count intact.
func TestDeadlineMidEnumeration(t *testing.T) {
	// Counting makes no call per embedding, so the pair must be heavy
	// enough that 1ms cannot finish even that: the 6-vertex path has over
	// a hundred million embeddings.
	m := pathMatcher(t, 6, Options{Workers: 2})

	ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
	defer cancel()
	start := time.Now()
	n, err := m.CountCtx(ctx)
	elapsed := time.Since(start)
	if err == nil {
		t.Skipf("enumeration finished inside the deadline (%d embeddings); host too fast", n)
	}
	if !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("CountCtx error = %v, want DeadlineExceeded", err)
	}
	if elapsed > 5*time.Second {
		t.Errorf("cancellation took %v, want prompt return", elapsed)
	}
}

// TestPreCancelledContext: an already-dead context does no work at all.
func TestPreCancelledContext(t *testing.T) {
	m := heavyMatcher(t, Options{Workers: 2})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	called := false
	err := m.ForEachCtx(ctx, func([]graph.VertexID) bool {
		called = true
		return true
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("error = %v, want context.Canceled", err)
	}
	if called {
		t.Error("callback invoked despite pre-cancelled context")
	}
}
