package service

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	icec "ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/plan"
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
	// Ignored when Planner is set.
	Order order.Heuristic
	// Planner enables cost-based adaptive planning per query class: on
	// build, every heuristic's order plus a greedy min-cost order are
	// scored by internal/plan's cardinality model and the cheapest wins;
	// the winning plan is cached with the index, each query folds its
	// observed per-depth selectivities into the entry, and the engine
	// re-plans — rebuilding the index under a new order if one is now
	// cheaper — when observed cost drifts PlannerDrift× past the
	// estimate.
	Planner bool
	// PlannerDrift is the re-plan trigger factor: re-plan when the
	// running order's cost, recosted under observed selectivities, is at
	// least this many times its original estimate (default 4).
	PlannerDrift float64
	// PlannerMinQueries is how many completed queries a cache entry must
	// observe before drift checks begin (default 3) — one noisy or
	// partial query should not trigger a rebuild.
	PlannerMinQueries int64
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
	// FlightSize is the flight recorder's ring capacity (default 256).
	// The recorder itself is always on — it costs one small struct per
	// completed query regardless of sampling.
	FlightSize int
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

func (o Options) withDefaults() Options {
	if o.MaxConcurrent <= 0 {
		o.MaxConcurrent = runtime.GOMAXPROCS(0)
	}
	if o.QueueDepth <= 0 {
		o.QueueDepth = 64
	}
	if o.DefaultTimeout <= 0 {
		o.DefaultTimeout = 30 * time.Second
	}
	if o.MaxTimeout <= 0 {
		o.MaxTimeout = 5 * time.Minute
	}
	if o.MaxLimit <= 0 {
		o.MaxLimit = 10000
	}
	if o.CacheBytes <= 0 {
		o.CacheBytes = 256 << 20
	}
	if o.Workers <= 0 {
		o.Workers = 1
	}
	if o.TraceSample == 0 {
		o.TraceSample = 1
	}
	if o.PlannerDrift <= 0 {
		o.PlannerDrift = 4
	}
	if o.PlannerMinQueries <= 0 {
		o.PlannerMinQueries = 3
	}
	return o
}

// pagePrealloc is how many embeddings of a page Engine.run reserves up
// front.
const pagePrealloc = 1024

// Request is one match request against the engine's resident data graph.
type Request struct {
	// Query is the pattern graph. Embeddings in the response are indexed
	// by this graph's vertex ids (even on a cache hit by an isomorphic
	// stored query — the engine translates).
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

	sem   chan struct{} // running-query slots (MaxConcurrent)
	queue chan struct{} // waiting-query slots (QueueDepth)

	buildMu  sync.Mutex
	building map[string]*buildCall

	flight  *obs.FlightRecorder
	auditMu sync.Mutex
	audit   *json.Encoder // optional JSONL audit log (nil when unset)

	// Admission/serving counters, exposed as ceci_service_* gauges.
	requests  atomic.Int64
	shed      atomic.Int64
	deadlines atomic.Int64
	builds    atomic.Int64
	inflight  atomic.Int64
	waiting   atomic.Int64

	// Adaptive-planner counters, exposed as ceci_planner_* gauges.
	planned     atomic.Int64 // entries built with a planner-chosen order
	driftChecks atomic.Int64 // calibrated recosts of a running order
	recosts     atomic.Int64 // drift re-plans that kept the order (estimate updated)
	replans     atomic.Int64 // drift re-plans that installed a new order (index rebuilt)

	latency   *obs.Histogram // end-to-end request seconds
	queueWait *obs.Histogram // admission wait seconds
}

// New returns an Engine serving queries against data. The graph is held
// resident for the engine's lifetime; indexes are built per query class
// on demand and cached.
func New(data *graph.Graph, opts Options) *Engine {
	o := opts.withDefaults()
	e := &Engine{
		data:      data,
		opts:      o,
		cache:     newCache(o.CacheBytes),
		sem:       make(chan struct{}, o.MaxConcurrent),
		queue:     make(chan struct{}, o.QueueDepth),
		building:  make(map[string]*buildCall),
		flight:    obs.NewFlightRecorder(o.FlightSize, obs.DefaultSlowestK),
		latency:   obs.NewHistogram(obs.LatencyBuckets()),
		queueWait: obs.NewHistogram(obs.LatencyBuckets()),
	}
	if o.Audit != nil {
		e.audit = json.NewEncoder(o.Audit)
	}
	if reg := o.Registry; reg != nil {
		reg.SetHistogram("service_latency_seconds", e.latency)
		reg.SetHistogram("service_queue_wait_seconds", e.queueWait)
		reg.SetSource("service", func() map[string]int64 {
			return map[string]int64{
				"requests":          e.requests.Load(),
				"shed":              e.shed.Load(),
				"deadline_exceeded": e.deadlines.Load(),
				"builds":            e.builds.Load(),
				"inflight":          e.inflight.Load(),
				"queue_depth":       e.waiting.Load(),
				"trace_reads":       int64(e.flight.Finds()),
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
		if o.Planner {
			reg.SetSource("planner", func() map[string]int64 {
				return map[string]int64{
					"planned":      e.planned.Load(),
					"drift_checks": e.driftChecks.Load(),
					"recosts":      e.recosts.Load(),
					"replans":      e.replans.Load(),
				}
			})
		}
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
func (e *Engine) Flight() *obs.FlightRecorder { return e.flight }

// CacheStats snapshots the index cache counters.
func (e *Engine) CacheStats() CacheStats { return e.cache.stats() }

// Builds returns how many index builds the engine has performed (cache
// hits skip builds; tests assert on this).
func (e *Engine) Builds() int64 { return e.builds.Load() }

// Query runs one request. The flow is: validate, apply deadline, admit
// (try a worker slot, else a bounded queue slot, else shed), resolve the
// index (cache hit / singleflight build), enumerate.
//
// On deadline/cancellation mid-run it returns the partial Response
// together with the context's error, so callers can report how far the
// query got.
func (e *Engine) Query(ctx context.Context, req Request) (*Response, error) {
	e.requests.Add(1)
	start := time.Now()
	defer func() { e.latency.ObserveDuration(time.Since(start)) }()

	if req.Query == nil {
		return nil, fmt.Errorf("%w: nil query graph", ErrBadQuery)
	}
	if req.Query.NumVertices() == 0 {
		return nil, fmt.Errorf("%w: empty query graph", ErrBadQuery)
	}
	if req.Offset < 0 || req.Limit < 0 {
		return nil, fmt.Errorf("%w: negative limit/offset", ErrBadQuery)
	}

	// Deadline: request timeout, clamped; server default otherwise.
	timeout := req.Timeout
	if timeout <= 0 {
		timeout = e.opts.DefaultTimeout
	}
	if timeout > e.opts.MaxTimeout {
		timeout = e.opts.MaxTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()

	// Trace identity: adopt the caller's (injected from a traceparent
	// header by the HTTP layer, or set by a Go caller via
	// obs.ContextWithTrace) or mint a fresh one. Every query gets a trace
	// ID — the flight recorder keys on it — but spans are recorded only
	// for sampled queries, so always-on tracing stays cheap.
	tc, hasTC := obs.TraceFromContext(ctx)
	if !hasTC || tc.TraceID.IsZero() {
		tc = obs.NewTraceContext()
		tc.Sampled = tc.SampleHead(e.opts.TraceSample)
	}
	sampled := tc.Sampled && e.opts.Tracer != nil
	var span *obs.Span
	if sampled {
		span = e.opts.Tracer.StartRemote(tc, "service-query",
			obs.Int("query_vertices", int64(req.Query.NumVertices())))
		ctx = obs.ContextWithSpan(ctx, span)
	} else {
		// Keep the inner layers from opening remote spans off the raw
		// trace context of an unsampled request.
		ctx = obs.DetachTrace(ctx)
	}

	// Resource ledger: the enumeration charges it at work-unit
	// boundaries; the allocation watermark brackets the whole query so
	// the build phase's allocations are attributed too.
	var led *telemetry.Ledger
	var alloc telemetry.AllocWatermark
	if e.opts.Telemetry != nil {
		led = telemetry.NewLedger()
		alloc = telemetry.StartAllocWatermark()
	}

	waited, err := e.admit(ctx, span)
	if err != nil {
		if errors.Is(err, context.DeadlineExceeded) {
			e.deadlines.Add(1)
		}
		e.finish(tc, span, req, nil, err, start, waited, led.Snapshot())
		return nil, err
	}
	e.inflight.Add(1)
	defer func() {
		e.inflight.Add(-1)
		<-e.sem
	}()

	resp, err := e.run(ctx, req, span, led)
	if errors.Is(err, context.DeadlineExceeded) {
		e.deadlines.Add(1)
	}
	alloc.ChargeTo(led)
	res := led.Snapshot()
	if resp != nil {
		resp.TraceID = tc.TraceID.String()
		resp.QueueWait = waited
		resp.Resources = res
		if span != nil {
			resp.Trace = span.Context()
			resp.Trace.Sampled = true
		}
	}
	e.finish(tc, span, req, resp, err, start, waited, res)
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

// finish closes the query's span tree, moves it out of the tracer into
// the flight record as it is (nothing is snapshotted until /tracez is
// read), and records the completed query in the flight recorder (and the
// audit log, when configured). Called exactly once per admitted-or-shed
// query; trace bookkeeping happens only here, at the request boundary,
// never inside the enumeration hot path.
func (e *Engine) finish(tc obs.TraceContext, span *obs.Span, req Request,
	resp *Response, err error, start time.Time, waited time.Duration,
	res *obs.QueryResources) {

	rec := obs.QueryRecord{
		Resources:       res,
		TraceID:         tc.TraceID.String(),
		Time:            start,
		QueryVertices:   req.Query.NumVertices(),
		Outcome:         statusFor(err),
		AdmissionWaitUS: waited.Microseconds(),
		TotalUS:         time.Since(start).Microseconds(),
		Sampled:         span != nil,
	}
	if resp != nil {
		rec.QueryHash = resp.QueryHash
		rec.CacheHit = resp.CacheHit
		rec.Partial = resp.Partial
		rec.Embeddings = resp.Count
		rec.BuildUS = resp.BuildTime.Microseconds()
		rec.EnumUS = resp.EnumTime.Microseconds()
	}
	if span != nil {
		span.Annotate(obs.Int("outcome", int64(rec.Outcome)),
			obs.Int("admission_wait_us", rec.AdmissionWaitUS))
		span.End()
		// Completed trees leave the tracer, so a long-running server's span
		// forest stays bounded by the ring.
		rec.Trace = e.opts.Tracer.Detach(tc.TraceID)
		if resp != nil {
			resp.Spans = rec.Trace
		}
	}
	e.flight.Record(rec)
	e.opts.Telemetry.ObserveQuery(rec) // aggregates scalars; keeps nothing of rec
	if e.audit != nil {
		e.auditMu.Lock()
		e.audit.Encode(rec) // one line per query: the record's JSON has no spans
		e.auditMu.Unlock()
	}
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

	// σ maps incoming query vertices to stored-query vertices through
	// the canonical form: embeddings from the cached index are indexed
	// by the stored query's ids and must be translated on a hit by an
	// isomorphic-but-renumbered query.
	sigma := composePerm(ent.invPerm, perm)

	limit := req.Limit
	if !req.CountOnly {
		if limit <= 0 || limit > e.opts.MaxLimit {
			limit = e.opts.MaxLimit
		}
	}
	// The enumeration must deliver offset + limit embeddings to fill the
	// page; CountOnly with Limit 0 counts everything.
	var stopAfter int64
	if limit > 0 {
		stopAfter = req.Offset + limit
	}

	// The ledger's per-position lookup and output counts feed the adaptive
	// planner's drift detector; selectivity ratios are scale-free (output
	// per lookup), so partial and limited enumerations contribute without
	// biasing the signal.
	if e.opts.Planner && ent.decision != nil {
		if led == nil {
			led = telemetry.NewLedger()
		}
		defer e.observePlan(ent, led)
	}

	m := enum.NewMatcher(ent.ix.Load(), enum.Options{
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
	page := Page{Width: len(sigma)}
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
		for _, s := range sigma {
			dv := emb[s]
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

// observePlan folds one query's per-depth lookup/output counts into the
// entry's accumulators and, once PlannerMinQueries queries have been
// seen, recosts the running order under the observed selectivities. A
// drift of PlannerDrift× past the original estimate triggers a re-plan.
func (e *Engine) observePlan(ent *entry, led *telemetry.Ledger) {
	positions := led.Positions()
	ent.mu.Lock()
	for i, w := range positions[:min(len(positions), len(ent.obsLookups))] {
		ent.obsLookups[i] += w.Lookups
		ent.obsEmitted[i] += w.Output
	}
	ent.obsQueries++
	dec := ent.decision
	var calib []float64
	if ent.obsQueries >= e.opts.PlannerMinQueries && !ent.replanning {
		calib = dec.Calibration(ent.obsLookups, ent.obsEmitted)
	}
	ent.mu.Unlock()
	if calib == nil {
		return
	}
	e.driftChecks.Add(1)
	observed := ent.planner.EstimateOrder(dec.Chosen, dec.Order, calib).Cost
	if observed < e.opts.PlannerDrift*math.Max(dec.Estimate, 1) {
		return
	}
	e.replan(ent, calib)
}

// replan re-runs the cost model with the entry's observed selectivities
// folded in. If the calibrated winner is the order already running, the
// entry just adopts the calibrated estimate (so drift does not
// re-trigger every query); otherwise the index is rebuilt under the new
// order and swapped into the cache. Queries already enumerating the old
// index finish on it — the swap only redirects future lookups.
func (e *Engine) replan(ent *entry, calib []float64) {
	ent.mu.Lock()
	if ent.replanning {
		ent.mu.Unlock()
		return
	}
	ent.replanning = true
	ent.mu.Unlock()
	done := func() {
		ent.mu.Lock()
		ent.replanning = false
		ent.mu.Unlock()
	}

	dec, err := ent.planner.Decide(calib)
	if err != nil {
		done()
		return
	}
	if sameOrder(dec.Order, ent.decision.Order) {
		e.recosts.Add(1)
		ent.mu.Lock()
		ent.decision = dec
		ent.resetObsLocked()
		ent.mu.Unlock()
		done()
		return
	}
	// New order: rebuild off the request path's deadline — the rebuild
	// benefits future queries of this class, not the one that noticed.
	// The entry's pivot restriction (shard mode) carries over; dropping
	// it here would silently widen the shard to the whole graph.
	ix, err := icec.BuildCtx(context.Background(), e.data, dec.Tree, icec.Options{
		Workers: e.opts.Workers,
		Stats:   e.opts.Stats,
		Pivots:  ent.pivots,
	})
	if err != nil {
		done()
		return
	}
	e.builds.Add(1)
	e.replans.Add(1)
	ent.mu.Lock()
	ent.decision = dec
	ent.resetObsLocked()
	ent.mu.Unlock()
	e.cache.replace(ent, ix, ix.PhysicalBytes())
	done()
}

func sameOrder(a, b []graph.VertexID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
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

// buildEntry preprocesses and builds one index, inserting it into
// the cache on success. With Options.Planner the matching order comes
// from the cost-based planner and the winning plan is cached alongside
// the index for later drift checks.
//
// In shard mode the stored query is the incoming query's canonical form
// and the index root is forced to the canonical anchor (the query's
// minimum-eccentricity vertex). Both choices are isomorphism-invariant,
// so every shard — whichever renumbering of the query class it saw
// first — partitions embeddings by the same query vertex and agrees
// with single-node serving on symmetry-breaking representatives.
func (e *Engine) buildEntry(ctx context.Context, q *graph.Graph, key string, perm []int) (*entry, error) {
	var tree *order.QueryTree
	var planner *plan.Planner
	var decision *plan.Decision
	var pivots []graph.VertexID
	var err error
	forcedRoot := -1
	storedQuery := q
	invPerm := invertPerm(perm)
	if sc := e.opts.Shard; sc != nil {
		storedQuery, err = canonicalForm(q, perm)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		// Stored query ids == canonical positions, so translation back
		// from the stored numbering is the identity.
		invPerm = identityPerm(len(perm))
		anchor, ecc := order.Anchor(storedQuery)
		if ecc > sc.Radius {
			return nil, fmt.Errorf("%w: query anchor eccentricity %d exceeds shard halo radius %d; repartition with -radius >= %d",
				ErrBadQuery, ecc, sc.Radius, ecc)
		}
		forcedRoot = int(anchor)
	}
	if e.opts.Planner {
		planner, err = plan.New(e.data, storedQuery, plan.Options{ForcedRoot: forcedRoot})
		if err == nil {
			decision, err = planner.Decide(nil)
		}
		if decision != nil {
			tree = decision.Tree
		}
	} else {
		tree, err = order.Preprocess(e.data, storedQuery, order.Options{
			ForcedRoot: forcedRoot,
			Heuristic:  e.opts.Order,
		})
	}
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	if sc := e.opts.Shard; sc != nil {
		// Owned pivots only: clusters anchored on halo vertices belong to
		// the shard that owns them. Non-nil even when empty, so the index
		// build restricts rather than re-deriving root candidates.
		pivots = make([]graph.VertexID, 0)
		filter := tree.Filter(e.data)
		tree = tree.WithFilter(filter) // a planned tree arrives without its tables; the build reuses these
		for _, v := range filter.Candidates(tree.Root) {
			if containsVertex(sc.OwnedLocals, v) {
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
	ent := &entry{
		key:      key,
		query:    storedQuery,
		invPerm:  invPerm,
		pivots:   pivots,
		bytes:    ix.PhysicalBytes(),
		planner:  planner,
		decision: decision,
	}
	ent.ix.Store(ix)
	if decision != nil {
		e.planned.Add(1)
		n := len(decision.Order)
		ent.obsLookups = make([]int64, n)
		ent.obsEmitted = make([]int64, n)
	}
	e.cache.add(ent)
	return ent, nil
}

// composePerm returns sigma with sigma[u] = invStored[permIncoming[u]]:
// incoming vertex -> canonical position -> stored query vertex.
func composePerm(invStored, permIncoming []int) []int {
	sigma := make([]int, len(permIncoming))
	for u, p := range permIncoming {
		sigma[u] = invStored[p]
	}
	return sigma
}

func invertPerm(perm []int) []int {
	inv := make([]int, len(perm))
	for v, p := range perm {
		inv[p] = v
	}
	return inv
}

func identityPerm(n int) []int {
	id := make([]int, n)
	for i := range id {
		id[i] = i
	}
	return id
}

// canonicalForm rebuilds q under its canonical numbering (perm from
// verify.CanonicalGraph, perm[orig] = canonical position). Isomorphic
// queries produce identical graphs, which is what makes shard-mode
// anchor and matching-order choices consistent fleet-wide.
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

// containsVertex reports whether sorted holds v (binary search).
func containsVertex(sorted []graph.VertexID, v graph.VertexID) bool {
	lo, hi := 0, len(sorted)
	for lo < hi {
		mid := (lo + hi) / 2
		if sorted[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(sorted) && sorted[lo] == v
}

func isCtxErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
