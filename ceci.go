// Package ceci is a Go implementation of CECI — the Compact Embedding
// Cluster Index for scalable subgraph matching (Bhattarai, Liu, Huang;
// SIGMOD 2019).
//
// Given a labeled query graph and a (much larger) labeled data graph,
// CECI enumerates every subgraph of the data graph isomorphic to the
// query. It decomposes the data graph into embedding clusters — one per
// candidate of the root query vertex — indexes tree-edge and non-tree-
// edge candidates with BFS filtering and reverse-BFS refinement, and
// enumerates embeddings in parallel purely by sorted-set intersection,
// with cardinality-driven workload balancing across workers.
//
// # Quick start
//
//	data, err := ceci.LoadGraphFile("data.lg")
//	query, err := ceci.LoadGraphFile("query.lg")
//	m, err := ceci.Match(data, query, nil)
//	n := m.Count() // all embeddings, all cores
//
// See the examples directory for labeled matching, workload-strategy
// exploration, and the simulated distributed deployment.
//
// # Correctness
//
// Everything this package exports is continuously cross-validated by
// the differential harness in internal/verify: seeded random pairs are
// matched by CECI, five independent baseline matchers, and a
// brute-force reference enumerator, which must all produce the same
// canonical embedding set; metamorphic invariants (graph isomorphism,
// label renaming, edge deletion, Options variations, limited matching)
// guard the properties no single oracle can. Replay any reported seed
// with `cecirun -verify -seed N`.
package ceci

import (
	"context"
	"fmt"
	"io"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"time"

	"ceci/internal/auto"
	icec "ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
	"ceci/internal/workload"
)

// Core graph types, aliased from the internal substrate so they can be
// used directly by importers of this package.
type (
	// Graph is an immutable undirected labeled graph in CSR form.
	Graph = graph.Graph
	// Builder accumulates vertices and edges and produces a Graph.
	Builder = graph.Builder
	// VertexID identifies a vertex: dense uint32 in [0, NumVertices).
	VertexID = graph.VertexID
	// Label is a vertex label drawn from a dense alphabet.
	Label = graph.Label
	// Stats carries instrumentation counters across a run.
	Stats = stats.Counters
)

// Observability types, aliased from the internal obs layer.
type (
	// Tracer records a hierarchical tree of timed spans
	// (preprocess → build → refine → enumerate → cluster).
	Tracer = obs.Tracer
	// TracerOptions configures a Tracer (child caps, JSONL event log).
	TracerOptions = obs.TracerOptions
	// TraceContext is a W3C traceparent-compatible trace position
	// (128-bit trace ID + parent span ID + sampling flag); carry it on a
	// context via obs.ContextWithTrace to stitch a Match's spans into a
	// caller-owned distributed trace.
	TraceContext = obs.TraceContext
	// Progress is one live snapshot of an enumeration.
	Progress = obs.Progress
	// ProgressFunc receives Progress snapshots at Options.ProgressInterval.
	ProgressFunc = obs.ProgressFunc
)

// NewTracer returns a span tracer to attach to Options.Tracer.
func NewTracer(opts TracerOptions) *Tracer { return obs.NewTracer(opts) }

// Resource accounting, aliased from the internal telemetry layer.
type (
	// Ledger is the record a run's enumeration work is drained into, at
	// work-unit boundaries so the steady-state step stays allocation-free:
	// per matching-order position the step counts and intersection-kernel
	// mix, per worker busy time and units, and in total recursive calls,
	// embeddings and peak scratch footprint. Progress reports and EXPLAIN
	// ANALYZE read it; Snapshot summarises it.
	Ledger = telemetry.Ledger
	// QueryResources is a Ledger snapshot: the immutable per-run resource
	// accounting attached to flight records and EXPLAIN ANALYZE profiles.
	QueryResources = obs.QueryResources
)

// NewLedger returns a resource ledger to attach to Options.Ledger.
func NewLedger() *Ledger { return telemetry.NewLedger() }

// Strategy selects how embedding clusters are distributed across workers
// (Sections 4.2–4.3 of the paper).
type Strategy int

const (
	// StrategyFine decomposes extreme clusters before dynamic pulling
	// (FGD) — the paper's best performer and this package's default.
	StrategyFine Strategy = iota
	// StrategyStatic assigns an equal number of clusters per worker (ST).
	StrategyStatic
	// StrategyCoarse lets idle workers pull whole clusters (CGD).
	StrategyCoarse
)

func (s Strategy) internal() workload.Strategy {
	switch s {
	case StrategyStatic:
		return workload.ST
	case StrategyCoarse:
		return workload.CGD
	default:
		return workload.FGD
	}
}

func (s Strategy) String() string { return s.internal().String() }

// OrderHeuristic selects the matching-order heuristic.
type OrderHeuristic = order.Heuristic

// Matching-order heuristics (Section 2.2).
const (
	OrderBFS           = order.BFSOrder
	OrderLeastFrequent = order.LeastFrequent
	OrderPathRanked    = order.PathRanked
	OrderEdgeRanked    = order.EdgeRanked
)

// NewBuilder returns a Builder pre-sized for n vertices (labels 0).
func NewBuilder(n int) *Builder { return graph.NewBuilder(n) }

// LoadGraph reads an unlabeled edge list ("u v" per line, # comments).
func LoadGraph(r io.Reader) (*Graph, error) { return graph.LoadEdgeList(r) }

// LoadLabeledGraph reads the "t/v/e" labeled-graph format.
func LoadLabeledGraph(r io.Reader) (*Graph, error) { return graph.LoadLabeled(r) }

// LoadGraphFile loads a graph from disk, dispatching on extension
// (".lg" labeled, otherwise edge list).
func LoadGraphFile(path string) (*Graph, error) { return graph.LoadFile(path) }

// WriteLabeledGraph writes g in the "t/v/e" format.
func WriteLabeledGraph(w io.Writer, g *Graph) error { return graph.WriteLabeled(w, g) }

// Options tunes matching. The zero value (or nil) gives the paper's
// defaults: all cores, FGD workload balancing with β = 0.2, BFS matching
// order, intersection-based enumeration, automorphism breaking on.
type Options struct {
	// Workers bounds parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Limit stops after this many embeddings (0 = all). The paper's
	// first-k experiments use 1024. Embedding clusters are independent (the
	// paper's core observation), so a limited Match indexes only the first
	// cluster of the root's ascending candidates and builds the complete
	// index the first time a call needs more than that cluster holds.
	Limit int64
	// Strategy selects cluster distribution (default StrategyFine).
	Strategy Strategy
	// Beta is the ExtremeCluster decomposition threshold factor
	// (default 0.2, the paper's §6.3 setting).
	Beta float64
	// Order selects the matching-order heuristic (default OrderBFS).
	Order OrderHeuristic
	// Root, when non-nil, forces the root query vertex; nil selects it
	// by the paper's argmin |cand(u)|/deg(u) cost rule.
	Root *VertexID
	// KeepAutomorphisms lists every automorphic image of each embedding
	// instead of one canonical representative.
	KeepAutomorphisms bool
	// EdgeVerification switches the enumerator to adjacency-probe
	// verification of non-tree edges — the ablation of Section 4.1;
	// intersection (the default) is what the paper advocates.
	EdgeVerification bool
	// Stats, when non-nil, accumulates instrumentation counters.
	Stats *Stats
	// Tracer, when non-nil, records hierarchical spans for every phase
	// (preprocess, build with refine children, enumerate with per-cluster
	// children). One tracer may be shared across queries.
	Tracer *Tracer
	// Ledger, when non-nil, is the record the enumeration's work is
	// drained into (CPU time, work units, peak scratch bytes, per-position
	// step counts and kernel mix); without one the run keeps a private
	// ledger. Read it with Ledger.Snapshot after the enumeration.
	Ledger *Ledger
	// Progress, when non-nil, is invoked every ProgressInterval during
	// enumeration — and once more when it finishes (Progress.Final) —
	// with live cluster/embedding counts, rates, per-worker busy time,
	// and a cardinality-derived ETA.
	Progress ProgressFunc
	// ProgressInterval is the reporting period (default 1s).
	ProgressInterval time.Duration

	// profile, when non-nil, threads the EXPLAIN ANALYZE collector
	// through the build and the enumeration. Set by ExplainAnalyze.
	profile *prof.Collector
}

func (o *Options) normalized() Options {
	var out Options
	if o != nil {
		out = *o
	}
	if out.Workers <= 0 {
		out.Workers = runtime.GOMAXPROCS(0)
	}
	if out.Beta <= 0 {
		out.Beta = workload.DefaultBeta
	}
	if out.Ledger == nil {
		// Private, but one per matcher: a limited matcher's prefix and
		// complete-index runs drain into the same ledger.
		out.Ledger = telemetry.NewLedger()
	}
	return out
}

// Matcher is a prepared (indexed) query against a data graph. Its methods
// are safe for concurrent use.
type Matcher struct {
	data     *Graph
	opts     Options
	progress *obs.Reporter // inner's; bracketed once per call by run

	// mu guards the fields below and is held across the build that
	// completes the index, so concurrent calls build it once.
	mu    sync.Mutex
	inner *enum.Matcher // over the held index, under Options.Limit
	// tree is the preprocessed query, verdict tables attached, while the
	// held index covers only the root candidates up to prefixEnd; nil once
	// it holds every cluster.
	tree      *order.QueryTree
	prefixEnd VertexID
}

// Match preprocesses the query, builds the CECI index, and returns a
// Matcher ready to enumerate. opts may be nil for defaults. Under
// Options.Limit the index covers the first embedding cluster only, and
// the rest is built by the first call that needs it.
//
// The query must be a connected graph; an error is returned otherwise
// (disconnected patterns should be matched component by component and
// joined by the caller).
func Match(data, query *Graph, opts *Options) (*Matcher, error) {
	return MatchCtx(context.Background(), data, query, opts)
}

// MatchCtx is Match under a context: the index construction observes
// ctx's deadline/cancellation and aborts promptly (returning the
// context's error) instead of running to completion. The returned
// Matcher's ForEachCtx/CountCtx honor a context during enumeration.
func MatchCtx(ctx context.Context, data, query *Graph, opts *Options) (*Matcher, error) {
	o := opts.normalized()
	tree, err := o.preprocess(ctx, data, query)
	if err != nil {
		return nil, err
	}
	bopts := o.buildOptions()
	var prefixTree *order.QueryTree
	var prefixEnd VertexID
	if o.Limit > 0 {
		// The prefix the growth rule names, unless that is every root
		// candidate: then the index is built complete, as without a limit.
		f := tree.Filter(data)
		tree = tree.WithFilter(f)
		pivots := f.Candidates(tree.Root)
		if k := icec.NextCoverage(1, len(pivots)); k < len(pivots) {
			bopts.Pivots = pivots[:k]
			prefixTree, prefixEnd = tree, pivots[k-1]
		}
	}
	ix, err := icec.BuildCtx(ctx, data, tree, bopts)
	if err != nil {
		return nil, err
	}
	eo := o.enumOptions()
	return &Matcher{data: data, opts: o, progress: eo.Progress, inner: enum.NewMatcher(ix, eo),
		tree: prefixTree, prefixEnd: prefixEnd}, nil
}

// buildOptions is the one translation of Options into the index
// builder's; Pivots is the caller's to set.
func (o *Options) buildOptions() icec.Options {
	return icec.Options{
		Workers: o.Workers,
		Stats:   o.Stats,
		Tracer:  o.Tracer,
		Profile: o.profile,
	}
}

// enumOptions is the one translation of Options into the enumerator's:
// a prefix index and the completed one enumerate under the same limits
// and charge the same sinks.
func (o *Options) enumOptions() enum.Options {
	return enum.Options{
		Workers:                 o.Workers,
		Limit:                   o.Limit,
		Strategy:                o.Strategy.internal(),
		Beta:                    o.Beta,
		EdgeVerification:        o.EdgeVerification,
		DisableSymmetryBreaking: o.KeepAutomorphisms,
		Stats:                   o.Stats,
		Trace:                   o.Tracer,
		Progress:                o.reporter(),
		Profile:                 o.profile,
		Ledger:                  o.Ledger,
	}
}

// reporter builds the live-progress reporter for a run, nil when no
// ProgressFunc is configured.
func (o *Options) reporter() *obs.Reporter {
	if o == nil || o.Progress == nil {
		return nil
	}
	return obs.NewReporter(o.Progress, o.ProgressInterval)
}

// Count enumerates and returns the number of embeddings (respecting
// Options.Limit).
func (m *Matcher) Count() int64 {
	n, _ := m.run(context.Background(), nil)
	return n
}

// CountCtx counts embeddings under ctx. On deadline or cancellation it
// returns the number of embeddings found so far alongside the context's
// error — callers report the partial count.
func (m *Matcher) CountCtx(ctx context.Context) (int64, error) { return m.run(ctx, nil) }

// ForEach streams embeddings to fn. The slice is indexed by query vertex
// ID and reused between calls — copy it to retain it. fn may be invoked
// concurrently from multiple workers; return false to stop early.
func (m *Matcher) ForEach(fn func(embedding []VertexID) bool) { m.run(context.Background(), fn) }

// ForEachCtx is ForEach under a context: when ctx is cancelled or times
// out, every enumeration worker stops at its next depth step and the
// context's error is returned. Embeddings delivered before the cut are
// not retracted.
func (m *Matcher) ForEachCtx(ctx context.Context, fn func(embedding []VertexID) bool) error {
	_, err := m.run(ctx, fn)
	return err
}

// Collect gathers embeddings into a slice. Intended for modest result
// sets; use ForEach to stream large ones.
func (m *Matcher) Collect() [][]VertexID { return m.collect(0) }

// First returns up to k embeddings (the paper's first-1024 mode uses
// k = 1024). Which embeddings are returned is nondeterministic under
// parallel enumeration.
func (m *Matcher) First(k int) [][]VertexID {
	if k <= 0 {
		return nil
	}
	return m.collect(k)
}

// collect gathers copies of up to k embeddings (0: all of them).
func (m *Matcher) collect(k int) [][]VertexID {
	var mu sync.Mutex // ForEach calls back from every worker
	var out [][]VertexID
	m.ForEach(func(emb []VertexID) bool {
		cp := slices.Clone(emb)
		mu.Lock()
		defer mu.Unlock()
		out = append(out, cp)
		return k == 0 || len(out) < k
	})
	if k > 0 && len(out) > k {
		out = out[:k]
	}
	return out
}

// run is every enumeration method. Over a complete index it enumerates
// once. Over a prefix it enumerates the prefix's clusters, and when that
// comes up short — every embedding there delivered with room left under
// Options.Limit, and neither the consumer nor ctx stopped it — it
// completes the index and enumerates the clusters past the prefix, through
// a restricted view, with what is left of the limit and into the same
// sinks: the embeddings come in the order the complete index gives them.
func (m *Matcher) run(ctx context.Context, fn func([]VertexID) bool) (int64, error) {
	m.mu.Lock()
	inner, prefix, end := m.inner, m.tree != nil, m.prefixEnd
	m.mu.Unlock()
	if !prefix {
		n, _, err := inner.Enumerate(ctx, fn)
		return n, err
	}
	// One progress report for the call, however many runs it takes.
	m.progress.Begin(m.opts.Ledger.Work, 0, 0)
	defer m.progress.Stop()
	n, finished, err := inner.Enumerate(ctx, fn)
	if err != nil || !finished {
		return n, err
	}
	full, err := m.complete(ctx)
	if err != nil {
		return n, err
	}
	ix := full.Index()
	pivots := ix.Pivots()
	rest := pivots[sort.Search(len(pivots), func(i int) bool { return pivots[i] > end }):]
	more, _, err := full.Over(ix.Restrict(rest), m.opts.Limit-n).Enumerate(ctx, fn)
	return n + more, err
}

// complete returns the enumerator over the complete index, building the
// index when the matcher holds a prefix — once, however many calls ask at
// the same time (they wait for it). A failed build (ctx, or an index too
// large to address) leaves the prefix held and returns its enumerator
// with the error.
func (m *Matcher) complete(ctx context.Context) (*enum.Matcher, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.tree == nil {
		return m.inner, nil
	}
	ix, err := icec.BuildCtx(ctx, m.data, m.tree, m.opts.buildOptions())
	if err != nil {
		return m.inner, err
	}
	m.inner, m.tree = m.inner.Over(ix, m.opts.Limit), nil
	return m.inner, nil
}

// index returns the complete index, for the methods that report it: they
// describe what an unlimited Match would hold. When the completing build
// fails it returns the index held — the first cluster's — with the error.
func (m *Matcher) index() (*icec.Index, error) {
	full, err := m.complete(context.Background())
	return full.Index(), err
}

// IndexInfo reports size and shape statistics of the built CECI,
// supporting the paper's Table 2 accounting.
type IndexInfo struct {
	// Pivots is the number of embedding clusters.
	Pivots int
	// CandidateEdges counts (key, value) pairs across TE/NTE structures.
	CandidateEdges int64
	// SizeBytes is 8 × CandidateEdges (the paper's accounting).
	SizeBytes int64
	// PhysicalBytes is the measured in-memory footprint of the index
	// (key, offset, arena, candidate and cardinality columns) — the
	// number cache byte budgets are charged against.
	PhysicalBytes int64
	// TheoreticalBytes is the worst case 8·|Eq|·|Eg|.
	TheoreticalBytes int64
	// TotalCardinality upper-bounds the number of embeddings.
	TotalCardinality int64
}

// IndexInfo returns statistics about the matcher's CECI — the complete
// one, which a limited matcher builds first if it has not yet. Should that
// build fail (an index too large to address), it describes the first
// cluster's index the matcher still holds; ExplainAnalyze returns that
// error.
func (m *Matcher) IndexInfo() IndexInfo {
	ix, _ := m.index()
	return indexInfo(ix)
}

func indexInfo(ix *icec.Index) IndexInfo {
	return IndexInfo{
		Pivots:           len(ix.Pivots()),
		CandidateEdges:   ix.CandidateEdges(),
		SizeBytes:        ix.SizeBytes(),
		PhysicalBytes:    ix.PhysicalBytes(),
		TheoreticalBytes: ix.TheoreticalBytes(),
		TotalCardinality: ix.TotalCardinality(),
	}
}

// SpaceSavedPercent is the Table 2 "% of space saved" metric.
func (i IndexInfo) SpaceSavedPercent() float64 {
	if i.TheoreticalBytes == 0 {
		return 0
	}
	return 100 * (1 - float64(i.SizeBytes)/float64(i.TheoreticalBytes))
}

// Count is a one-shot convenience: index + enumerate + count.
func Count(data, query *Graph, opts *Options) (int64, error) {
	m, err := Match(data, query, opts)
	if err != nil {
		return 0, err
	}
	return m.Count(), nil
}

// preprocess makes the query tree Match builds over: the forced root,
// the "preprocess" span, and the order of Options.Order.
func (o *Options) preprocess(ctx context.Context, data, query *Graph) (*order.QueryTree, error) {
	if data == nil || query == nil {
		return nil, fmt.Errorf("ceci: nil %s graph", map[bool]string{true: "data", false: "query"}[data == nil])
	}
	forcedRoot := -1
	if o.Root != nil {
		forcedRoot = int(*o.Root)
	}
	psp := obs.StartUnder(ctx, o.Tracer, "preprocess")
	defer psp.End()
	return order.Preprocess(data, query, order.Options{
		ForcedRoot: forcedRoot,
		Heuristic:  o.Order,
	})
}

// Automorphisms returns the number of automorphic images each embedding
// of query has under the equivalence classes the enumerator breaks.
func Automorphisms(query *Graph) int {
	return auto.Compute(query).OrbitSize()
}

// LoadGraphCSR reads the binary CSR format written by WriteGraphCSR.
func LoadGraphCSR(path string) (*Graph, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return graph.ReadCSR(f)
}

// WriteGraphCSR writes g in the binary CSR format used by the
// shared-storage distributed mode. The format holds one label per vertex:
// a graph with extra labels is an error, and no file is left behind.
func WriteGraphCSR(path string, g *Graph) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := graph.WriteCSR(f, g); err != nil {
		f.Close()
		os.Remove(path)
		return err
	}
	return f.Close()
}
