package enum

import (
	"context"
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/ceci"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/workload"
)

// ForEachIncremental enumerates embeddings cluster by cluster, building
// each pivot's slice of the CECI on demand instead of indexing the whole
// data graph up front. Embedding clusters are independent (that is the
// core observation of the paper), so a per-cluster build touches only the
// region reachable from its pivot — exactly the right trade for first-k
// workloads (§6.2's 1,024-embedding experiments), where a monolithic
// build would index far more of the graph than the enumeration ever
// visits.
//
// Semantics match Matcher.ForEach: fn may run concurrently, the slice is
// reused, returning false stops everything; eopts.Limit is honored
// globally across clusters.
func ForEachIncremental(data *graph.Graph, tree *order.QueryTree,
	bopts ceci.Options, eopts Options, fn func(emb []graph.VertexID) bool) {
	_ = ForEachIncrementalCtx(context.Background(), data, tree, bopts, eopts, fn)
}

// ForEachIncrementalCtx is ForEachIncremental under a context: the
// deadline/cancel is honored at cluster granularity between per-pivot
// builds, inside each on-demand build (via ceci.BuildCtx), and at depth-
// step granularity inside enumeration through the shared stop flag.
// Returns the context's cause when the run was cut short, nil otherwise.
func ForEachIncrementalCtx(ctx context.Context, data *graph.Graph, tree *order.QueryTree,
	bopts ceci.Options, eopts Options, fn func(emb []graph.VertexID) bool) error {
	return forEachIncremental(ctx, data, tree, bopts, eopts, &control{fn: fn, limit: eopts.Limit})
}

// CountIncremental counts embeddings the way ForEachIncremental finds
// them, with no callback per embedding: the total is what the workers
// drained.
func CountIncremental(data *graph.Graph, tree *order.QueryTree, bopts ceci.Options, eopts Options) int64 {
	ctl := &control{limit: eopts.Limit}
	_ = forEachIncremental(context.Background(), data, tree, bopts, eopts, ctl) // nothing cancels it
	return ctl.counted.Load()
}

func forEachIncremental(ctx context.Context, data *graph.Graph, tree *order.QueryTree,
	bopts ceci.Options, eopts Options, ctl *control) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}

	// One set of verdict tables serves the pivot list and every
	// per-cluster build below.
	filter := tree.Filter(data)
	tree = tree.WithFilter(filter)
	pivots := filter.Candidates(tree.Root)
	if len(pivots) == 0 {
		return nil
	}

	// The matcher every worker copies: its index is swapped per cluster,
	// and until a worker's first build it is just the shape newSearcher
	// sizes its buffers from.
	shell := NewMatcher(&ceci.Index{Data: data, Tree: tree}, eopts)
	workers := min(shell.opts.Workers, len(pivots))
	var cancelled atomic.Bool
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			cancelled.Store(true)
			ctl.stop.Store(true)
		})
		defer stop()
	}

	shell.begin(workers)
	if st := eopts.Stats; st != nil {
		st.UnitsScheduled.Add(int64(len(pivots)))
	}
	if rep := eopts.Progress; rep != nil {
		// Cluster cardinalities are unknown up front (each cluster's index
		// is built on demand), so ETA derives from cluster counts alone.
		rep.Begin(shell.opts.Ledger.Work, len(pivots), 0)
		defer rep.Stop()
	}
	span := obs.StartUnder(ctx, eopts.Trace, "enumerate-incremental",
		obs.Int("pivots", int64(len(pivots))),
		obs.Int("workers", int64(workers)))
	defer span.End()
	// Per-cluster builds below run under a detached context: one span per
	// cluster would flood the trace, and clusterOpts.Tracer is already nil.
	buildCtx := obs.DetachTrace(ctx)

	if p := eopts.Profile; p != nil {
		if bopts.Profile == nil {
			bopts.Profile = p // one attach point covers the per-cluster builds
		}
		enumStart := time.Now()
		defer func() { p.AddEnumWall(time.Since(enumStart)) }()
	}

	var cursor atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			// One matcher and searcher per worker, so buffers are reused.
			shell := *shell
			s := newSearcher(&shell, ctl)
			s.worker = w
			defer s.drain(false, 0, 0) // the per-depth counts wait for a drain that is not a unit's
			pivotBuf := make([]graph.VertexID, 1)
			for {
				i := cursor.Add(1) - 1
				if i >= int64(len(pivots)) || ctl.stop.Load() {
					return
				}
				unitStart := time.Now()
				pivotBuf[0] = pivots[i]
				clusterOpts := bopts
				clusterOpts.Workers = 1
				clusterOpts.Pivots = pivotBuf
				clusterOpts.Tracer = nil // per-cluster builds would flood the trace
				ix, err := ceci.BuildCtx(buildCtx, data, tree, clusterOpts)
				if err != nil {
					return // cancelled mid-build; ctl.stop is already up
				}
				ok := true
				if len(ix.Pivots()) > 0 { // else the cluster died during filtering/refinement
					shell.ix = ix
					ok = s.runUnit(workload.Unit{Prefix: pivotBuf[:1]})
				}
				busy := time.Since(unitStart)
				s.drain(true, 0, busy)
				eopts.Profile.ObserveUnit(busy)
				if !ok {
					return
				}
			}
		}(w)
	}
	wg.Wait()
	if cancelled.Load() {
		return context.Cause(ctx)
	}
	return nil
}
