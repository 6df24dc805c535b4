package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	icec "ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
	"ceci/internal/verify"
)

// ErrOverloaded is returned when both the worker pool and the wait queue
// are full; HTTP maps it to 429 so clients can back off and retry.
var ErrOverloaded = errors.New("service: overloaded, queue full")

// ErrBadQuery wraps query-validation failures; HTTP maps it to 400.
var ErrBadQuery = errors.New("service: bad query")

// Options configures an Engine. Zero values get sensible server
// defaults (documented per field).
type Options struct {
	// MaxConcurrent bounds queries executing simultaneously
	// (default GOMAXPROCS). Each query may itself use Workers cores, so
	// the product is the real CPU ceiling.
	MaxConcurrent int
	// QueueDepth bounds queries waiting for a worker slot (default 64).
	// A query arriving with pool and queue both full is shed with
	// ErrOverloaded instead of queueing unboundedly.
	QueueDepth int
	// DefaultTimeout applies when a request carries none (default 30s).
	DefaultTimeout time.Duration
	// MaxTimeout clamps request-supplied timeouts (default 5m).
	MaxTimeout time.Duration
	// MaxLimit caps embeddings returned per request (default 10000).
	// Counts (CountOnly) are not capped — only materialized results.
	MaxLimit int64
	// CacheBytes is the index cache budget, charged against each cached
	// index's PhysicalBytes (default 256 MiB).
	CacheBytes int64
	// Workers bounds per-query enumeration parallelism (default 1: with
	// MaxConcurrent queries in flight the server is already parallel
	// across requests; raise this for latency-sensitive single-tenant
	// setups).
	Workers int
	// Order selects the matching-order heuristic for built indexes.
	Order order.Heuristic
	// Registry, when non-nil, receives cache/admission gauges and
	// latency histograms (served at /metrics under the HTTP handler).
	Registry *obs.Registry
	// Tracer, when non-nil, records one span per sampled request with
	// build/enumerate children; completed trees move into the flight
	// recorder (and out of the tracer) when the query finishes.
	Tracer *obs.Tracer
	// TraceSample is the head-based sampling rate for requests that
	// arrive without a traceparent: 1 samples every query, 0.01 one in a
	// hundred. The zero value means 1 (sample everything); pass a
	// negative rate to disable span recording entirely. Requests that
	// carry a traceparent keep the caller's sampling decision.
	TraceSample float64
	// Audit, when non-nil, receives one JSON line per completed query
	// (the flight-recorder record, spans omitted) — a structured audit
	// log that survives ring eviction. Writes are serialized by the
	// engine; pass a buffered writer for high request rates.
	Audit io.Writer
	// Stats, when non-nil, accumulates build/enumeration counters
	// across all requests.
	Stats *stats.Counters
	// Telemetry, when non-nil, receives per-query resource ledgers and
	// SLO observations, and serves /statz and /dashz. Each query gets a
	// telemetry.Ledger charged by the enumeration at work-unit
	// boundaries; the snapshot rides the flight record.
	Telemetry *telemetry.Hub
	// Shard, when non-nil, runs the engine as one member of a sharded
	// fleet: the resident graph is a pivot-owned partition (owned
	// vertices plus a halo of radius Shard.Radius), indexes restrict
	// their embedding clusters to owned pivots, and embeddings are
	// translated back to the source graph's global vertex ids. See
	// internal/shard for the partitioning contract.
	Shard *ShardConfig
}

// ShardConfig describes the partition an Engine serves in shard mode.
// It mirrors shard.Partition without importing it (the shard package's
// router imports service, not the other way around).
type ShardConfig struct {
	// ID is this shard's index in [0, Shards).
	ID int
	// Shards is the fleet size the partition was cut for.
	Shards int
	// Radius is the halo depth: every vertex within this data-graph
	// distance of an owned vertex is present in the resident subgraph.
	// Queries whose anchor eccentricity exceeds it are rejected — the
	// shard cannot guarantee it holds their full embeddings.
	Radius int
	// Globals maps local vertex id -> global (source graph) vertex id.
	// It is strictly ascending, which makes local-id comparisons agree
	// with global-id comparisons — the property that keeps
	// symmetry-breaking orbit representatives identical across the
	// fleet and on a single node.
	Globals []graph.VertexID
	// OwnedLocals lists the local ids this shard owns (sorted). Only
	// embedding clusters pivoted on owned vertices are enumerated, so
	// fleet-wide shard counts partition the single-node count exactly.
	OwnedLocals []graph.VertexID
}

// withDefaults fills the engine's own settings; the frame's (timeouts,
// MaxLimit, TraceSample) are defaulted by NewFrame, which is what reads
// them.
func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	return o
}

// pagePrealloc is how many embeddings of a page Engine.run reserves up
// front.
const pagePrealloc = 1024

// Request is one match request against the engine's resident data graph.
type Request struct {
	// Query is the pattern graph. Embeddings in the response are indexed
	// by this graph's vertex ids (the engine indexes the class's canonical
	// form and translates, hit or miss).
	Query *graph.Graph
	// Limit caps embeddings delivered (0 = server MaxLimit for
	// materialized results, unlimited for CountOnly).
	Limit int64
	// Offset skips this many embeddings before collecting. Pagination is
	// best-effort: parallel enumeration order is nondeterministic, so
	// pages are stable only with Workers=1 per query.
	Offset int64
	// Timeout overrides the server default (clamped to MaxTimeout).
	Timeout time.Duration
	// CountOnly skips materializing embeddings.
	CountOnly bool
}

// Response carries the result. On deadline errors the engine still
// returns a Response with Partial=true and the counts reached.
type Response struct {
	Count int64
	// Page holds the embeddings delivered (none for CountOnly), each
	// indexed by the request's query vertex ids.
	Page      Page
	CacheHit  bool
	Partial   bool
	BuildTime time.Duration
	EnumTime  time.Duration
	// TraceID is the query's trace identity as 32 hex digits — the key
	// into /queryz and /tracez/{traceID}. Set on every response, sampled
	// or not.
	TraceID string
	// Trace is the request root span's trace position, valid only when
	// the query was sampled; HTTP emits it as the response traceparent.
	Trace obs.TraceContext
	// Spans is the query's finished span tree (sampled queries only), the
	// one its flight record holds. In shard mode the HTTP layer puts it on
	// the reply to a caller that sent a traceparent.
	Spans *obs.Trace
	// QueryHash identifies the query's isomorphism class (the index
	// cache key, shortened) — equal for isomorphic patterns.
	QueryHash string
	// QueueWait is the time spent waiting for a worker slot.
	QueueWait time.Duration
	// Resources is the query's resource ledger snapshot, present when
	// the engine runs with telemetry enabled.
	Resources *obs.QueryResources
}

// buildCall is the singleflight slot for one cache key: concurrent
// requests for the same (isomorphism class of) query share one build.
type buildCall struct {
	done  chan struct{}
	entry *entry
	err   error
}

// Engine executes queries against one resident data graph.
type Engine struct {
	data  *graph.Graph
	opts  Options
	cache *cache
	frame *Frame // deadline, trace identity, flight record: shared with shard.Router

	sem   chan struct{} // running-query slots (MaxConcurrent)
	queue chan struct{} // waiting-query slots (QueueDepth)

	buildMu  sync.Mutex
	building map[string]*buildCall

	// Admission/serving counters, exposed as ceci_service_* gauges.
	requests  atomic.Int64
	shed      atomic.Int64
	deadlines atomic.Int64
	builds    atomic.Int64
	inflight  atomic.Int64
	waiting   atomic.Int64

	queueWait *obs.Histogram // admission wait seconds
}

// New returns an Engine serving queries against data. The graph is held
// resident for the engine's lifetime; indexes are built per query class
// on demand and cached.
func New(data *graph.Graph, opts Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{
		data:  data,
		opts:  o,
		cache: newCache(o.CacheBytes),
		frame: NewFrame(Frame{
			Span:           "service-query",
			DefaultTimeout: o.DefaultTimeout,
			MaxTimeout:     o.MaxTimeout,
			MaxLimit:       o.MaxLimit,
			Tracer:         o.Tracer,
			TraceSample:    o.TraceSample,
			Telemetry:      o.Telemetry,
			Audit:          o.Audit,
		}),
		sem:       make(chan struct{}, o.MaxConcurrent),
		queue:     make(chan struct{}, o.QueueDepth),
		building:  make(map[string]*buildCall),
		queueWait: obs.NewHistogram(obs.LatencyBuckets()),
	}
	if reg := o.Registry; reg != nil {
		reg.SetHistogram("service_latency_seconds", e.frame.Latency())
		reg.SetHistogram("service_queue_wait_seconds", e.queueWait)
		reg.SetSource("service", func() map[string]int64 {
			return map[string]int64{
				"requests":          e.requests.Load(),
				"shed":              e.shed.Load(),
				"deadline_exceeded": e.deadlines.Load(),
				"builds":            e.builds.Load(),
				"inflight":          e.inflight.Load(),
				"queue_depth":       e.waiting.Load(),
				"trace_reads":       int64(e.frame.Flight().Finds()),
			}
		})
		reg.SetSource("cache", func() map[string]int64 {
			s := e.cache.stats()
			return map[string]int64{
				"entries":      int64(s.Entries),
				"used_bytes":   s.UsedBytes,
				"budget_bytes": s.BudgetBytes,
				"hits":         s.Hits,
				"misses":       s.Misses,
				"evictions":    s.Evictions,
				"rejected":     s.Rejected,
			}
		})
		if o.Stats != nil {
			reg.SetCounters(o.Stats)
		}
		if o.Tracer != nil {
			reg.SetTracer(o.Tracer)
		}
		// The hub samples the registry's gauges and histograms into its
		// time-series store, and registers its SLO burn gauges back.
		o.Telemetry.BindRegistry(reg)
	}
	return e
}

// Data returns the resident data graph.
func (e *Engine) Data() *graph.Graph { return e.data }

// Flight returns the engine's flight recorder (never nil) — the last N
// completed queries plus the slowest-K index, served at /queryz.
func (e *Engine) Flight() *obs.FlightRecorder { return e.frame.Flight() }

// CacheStats snapshots the index cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// Builds returns how many index builds the engine has performed (cache
// hits skip builds; tests assert on this).
func (e *Engine) Builds() int64 { return e.builds.Load() }

// Query runs one request through the five steps of a served query
// (DESIGN §12): it arrives decoded; the frame opens (deadline, trace
// identity, root span); serve admits it (a worker slot, else a bounded
// queue slot, else shed), resolves the index (canonicalise, cache hit or
// singleflight build) and enumerates; the frame's tail files it.
//
// On deadline/cancellation mid-run it returns the partial Response
// together with the context's error, so callers can report how far the
// query got. A request refused once its query graph is in hand is filed
// like any other, with outcome 400.
func (e *Engine) Query(ctx context.Context, req Request) (*Response, error) {
	e.requests.Add(1)
	if req.Query == nil {
		return nil, fmt.Errorf("%w: nil query graph", ErrBadQuery)
	}
	if req.Query.NumVertices() == 0 {
		return nil, fmt.Errorf("%w: empty query graph", ErrBadQuery)
	}
	call := e.frame.Begin(ctx, req.Query, req.Timeout)

	// Resource ledger: the enumeration charges it at work-unit
	// boundaries; the allocation watermark brackets the whole query so
	// the build phase's allocations are attributed too.
	var led *telemetry.Ledger
	var alloc telemetry.AllocWatermark
	if e.opts.Telemetry != nil {
		led = telemetry.NewLedger()
		alloc = telemetry.StartAllocWatermark()
	}

	resp, waited, err := e.serve(call, req, led)
	if errors.Is(err, context.DeadlineExceeded) {
		e.deadlines.Add(1)
	}
	alloc.ChargeTo(led)
	rec := obs.QueryRecord{
		Resources:       led.Snapshot(),
		Outcome:         statusFor(err),
		AdmissionWaitUS: waited.Microseconds(),
	}
	if resp != nil {
		resp.TraceID = call.TraceID
		resp.Trace = call.Egress
		resp.QueueWait = waited
		resp.Resources = rec.Resources
		rec.QueryHash = resp.QueryHash
		rec.CacheHit = resp.CacheHit
		rec.Partial = resp.Partial
		rec.Embeddings = resp.Count
		rec.BuildUS = resp.BuildTime.Microseconds()
		rec.EnumUS = resp.EnumTime.Microseconds()
	}
	call.Span.Annotate(obs.Int("admission_wait_us", rec.AdmissionWaitUS))
	spans := call.Finish(rec)
	if resp != nil {
		resp.Spans = spans
	}
	return resp, err
}

// statusFor maps an engine error to the HTTP-style outcome code shared
// by the HTTP layer and the flight recorder.
func statusFor(err error) int {
	switch {
	case err == nil:
		return 200
	case errors.Is(err, ErrOverloaded):
		return 429
	case errors.Is(err, ErrBadQuery):
		return 400
	case errors.Is(err, context.DeadlineExceeded):
		return 504
	case errors.Is(err, context.Canceled):
		return 499 // client closed request
	default:
		return 500
	}
}

// serve is the engine's own part of a query, inside the frame: check the
// window, take a worker slot, run. It returns the time spent waiting for
// the slot beside run's result.
func (e *Engine) serve(call *Call, req Request, led *telemetry.Ledger) (*Response, time.Duration, error) {
	if req.Offset < 0 || req.Limit < 0 {
		return nil, 0, fmt.Errorf("%w: negative limit/offset", ErrBadQuery)
	}
	waited, err := e.admit(call.Ctx, call.Span)
	if err != nil {
		return nil, waited, err
	}
	e.inflight.Add(1)
	defer func() {
		e.inflight.Add(-1)
		<-e.sem
	}()
	resp, err := e.run(call.Ctx, req, call.Span, led)
	return resp, waited, err
}

// admit acquires a worker slot, parking in the bounded queue while the
// pool is full. Returns the time spent waiting, and ErrOverloaded when
// the queue is full too, or the context's error if the deadline fires
// while waiting.
func (e *Engine) admit(ctx context.Context, span *obs.Span) (time.Duration, error) {
	select {
	case e.sem <- struct{}{}:
		return 0, nil // fast path: free worker slot
	default:
	}
	select {
	case e.queue <- struct{}{}:
	default:
		e.shed.Add(1)
		return 0, ErrOverloaded
	}
	e.waiting.Add(1)
	waitStart := time.Now()
	defer func() {
		e.waiting.Add(-1)
		e.queueWait.ObserveDuration(time.Since(waitStart))
		<-e.queue
	}()
	wsp := span.Child("queue-wait")
	defer wsp.End()
	select {
	case e.sem <- struct{}{}:
		return time.Since(waitStart), nil
	case <-ctx.Done():
		return time.Since(waitStart), context.Cause(ctx)
	}
}

// run resolves the index and enumerates. Called with a worker slot
// held. The build and enumeration layers open their own spans beneath
// the request span they find on ctx, so the trace shows the real
// phases (build → expand/refine, enumerate) rather than wrappers.
func (e *Engine) run(ctx context.Context, req Request, span *obs.Span, led *telemetry.Ledger) (*Response, error) {
	ent, perm, hit, buildTime, key, err := e.getIndex(ctx, req.Query)
	qh := queryHash(key)
	if err != nil {
		if ctxErr := ctx.Err(); ctxErr != nil {
			// Build cut short by the deadline: report what we know.
			return &Response{Partial: true, BuildTime: buildTime, QueryHash: qh}, context.Cause(ctx)
		}
		return nil, err
	}
	span.Annotate(obs.String("cache_hit", fmt.Sprint(hit)),
		obs.String("query_hash", qh))

	resp := &Response{CacheHit: hit, BuildTime: buildTime, QueryHash: qh}

	limit := req.Limit
	if !req.CountOnly {
		limit = e.frame.PageLimit(limit)
	}
	// The enumeration must deliver offset + limit embeddings to fill the
	// page; CountOnly with Limit 0 counts everything.
	var stopAfter int64
	if limit > 0 {
		stopAfter = req.Offset + limit
	}

	m := enum.NewMatcher(ent.ix, enum.Options{
		Workers: e.opts.Workers,
		Limit:   stopAfter,
		Stats:   e.opts.Stats,
		Ledger:  led,
	})

	// Shard mode: enumerated ids are shard-local; responses speak global
	// (source graph) ids so the router can merge shards without a map.
	var globals []graph.VertexID
	if sc := e.opts.Shard; sc != nil {
		globals = sc.Globals
	}

	// The page is collected into one flat array, sized for a full page
	// up to pagePrealloc embeddings and grown by append beyond that.
	page := Page{Width: len(perm)}
	if !req.CountOnly {
		page.IDs = make([]graph.VertexID, 0, int(min(limit, pagePrealloc))*page.Width)
	}

	enumStart := time.Now()
	var count atomic.Int64
	var mu sync.Mutex
	enumErr := m.ForEachCtx(ctx, func(emb []graph.VertexID) bool {
		n := count.Add(1)
		if req.CountOnly {
			return true
		}
		if n <= req.Offset {
			return true
		}
		mu.Lock()
		// The index is the canonical form's, so emb is indexed by
		// canonical position and perm — the request's own canonical
		// permutation — reads it back in the request's numbering.
		for _, c := range perm {
			dv := emb[c]
			if globals != nil {
				dv = globals[dv]
			}
			page.IDs = append(page.IDs, dv)
		}
		mu.Unlock()
		return true
	})
	resp.EnumTime = time.Since(enumStart)

	resp.Count = count.Load()
	resp.Page = page
	if enumErr != nil {
		resp.Partial = true
		return resp, enumErr
	}
	return resp, nil
}

// getIndex returns the cache entry for the query's isomorphism class,
// building (once, via singleflight) on a miss. perm maps the incoming
// query's vertices to canonical positions; key is the canonical cache
// key (returned even on failure, so the flight record keeps the query's
// identity).
func (e *Engine) getIndex(ctx context.Context, q *graph.Graph) (ent *entry, perm []int, hit bool, buildTime time.Duration, key string, err error) {
	key, perm = verify.CanonicalGraph(q)
	for {
		if ent, ok := e.cache.get(key); ok {
			return ent, perm, true, 0, key, nil
		}
		e.buildMu.Lock()
		if call, ok := e.building[key]; ok {
			e.buildMu.Unlock()
			// Follow a build in flight. If the leader's deadline killed
			// the build but ours is still alive, loop and retry (we may
			// become the next leader).
			select {
			case <-call.done:
				if call.err != nil {
					if isCtxErr(call.err) && ctx.Err() == nil {
						continue
					}
					return nil, nil, false, 0, key, call.err
				}
				return call.entry, perm, false, 0, key, nil
			case <-ctx.Done():
				return nil, nil, false, 0, key, context.Cause(ctx)
			}
		}
		call := &buildCall{done: make(chan struct{})}
		e.building[key] = call
		e.buildMu.Unlock()

		// The build opens its own span (expand/refine children) beneath
		// the request span riding ctx; no wrapper span here.
		buildStart := time.Now()
		call.entry, call.err = e.buildEntry(ctx, q, key, perm)
		buildTime = time.Since(buildStart)

		e.buildMu.Lock()
		delete(e.building, key)
		e.buildMu.Unlock()
		close(call.done)

		if call.err != nil {
			return nil, nil, false, buildTime, key, call.err
		}
		return call.entry, perm, false, buildTime, key, nil
	}
}

// queryHash shortens a canonical cache key to 16 hex digits — the
// query-class identity shown in /queryz and EXPLAIN output.
func queryHash(key string) string {
	if key == "" {
		return ""
	}
	sum := sha256.Sum256([]byte(key))
	return hex.EncodeToString(sum[:8])
}

// buildEntry builds the index of q's class and inserts it into the
// cache. What is indexed is q's canonical form under the engine's static
// order, never q itself: isomorphic queries produce the same graph, so
// the entry — its matching order, its symmetry-breaking representatives,
// the order its embeddings come out in — is a function of the class, not
// of whichever twin arrived first, and a page is the same page before
// and after an eviction.
//
// Shard mode adds only what is the shard's: the index root is forced to
// the canonical anchor (the form's minimum-eccentricity vertex, refused
// when further than the halo radius from some query vertex), so every
// shard partitions embeddings by the same query vertex, and the build is
// restricted to the pivots this shard owns.
func (e *Engine) buildEntry(ctx context.Context, q *graph.Graph, key string, perm []int) (*entry, error) {
	stored, err := canonicalForm(q, perm)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	sc := e.opts.Shard
	popts := order.Options{ForcedRoot: -1, Heuristic: e.opts.Order}
	if sc != nil {
		anchor, ecc := order.Anchor(stored)
		if ecc > sc.Radius {
			return nil, fmt.Errorf("%w: query anchor eccentricity %d exceeds shard halo radius %d; repartition with -radius >= %d",
				ErrBadQuery, ecc, sc.Radius, ecc)
		}
		popts.ForcedRoot = int(anchor)
	}
	tree, err := order.Preprocess(e.data, stored, popts)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	var pivots []graph.VertexID
	if sc != nil {
		// Owned pivots only: clusters anchored on halo vertices belong to
		// the shard that owns them. Non-nil even when empty, so the index
		// build restricts rather than re-deriving root candidates.
		pivots = make([]graph.VertexID, 0)
		for _, v := range tree.Filter(e.data).Candidates(tree.Root) {
			if _, owned := slices.BinarySearch(sc.OwnedLocals, v); owned {
				pivots = append(pivots, v)
			}
		}
	}
	ix, err := icec.BuildCtx(ctx, e.data, tree, icec.Options{
		Workers: e.opts.Workers,
		Stats:   e.opts.Stats,
		Pivots:  pivots,
	})
	if err != nil {
		return nil, err
	}
	e.builds.Add(1)
	ent := &entry{key: key, ix: ix, bytes: ix.PhysicalBytes()}
	e.cache.add(ent)
	return ent, nil
}

// canonicalForm rebuilds q under its canonical numbering (perm from
// verify.CanonicalGraph, perm[orig] = canonical position). Isomorphic
// queries produce identical graphs, which is what makes an entry the
// class's and, in shard mode, anchor and matching-order choices
// consistent fleet-wide.
func canonicalForm(q *graph.Graph, perm []int) (*graph.Graph, error) {
	n := q.NumVertices()
	b := graph.NewBuilder(n)
	for v := 0; v < n; v++ {
		labels := q.Labels(graph.VertexID(v))
		cv := graph.VertexID(perm[v])
		b.SetLabel(cv, labels[0])
		for _, l := range labels[1:] {
			b.AddExtraLabel(cv, l)
		}
	}
	q.Edges(func(u, v graph.VertexID) bool {
		b.AddEdge(graph.VertexID(perm[u]), graph.VertexID(perm[v]))
		return true
	})
	return b.Build()
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
