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
	"strconv"
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
	"ceci/internal/workload"
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
	// index's PhysicalBytes plus the heap its entry holds beside the
	// columns (default 256 MiB).
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
	// SLO observations, and serves /statz. Each query gets a
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
	Page     Page
	CacheHit bool
	Partial  bool
	// BuildTime and EnumTime sum every build this request made (none on
	// a hit, two when its first entry came up short) and every enumeration.
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
				"entries":       int64(s.Entries),
				"used_bytes":    s.UsedBytes,
				"budget_bytes":  s.BudgetBytes,
				"hits":          s.Hits,
				"misses":        s.Misses,
				"evictions":     s.Evictions,
				"evicted_bytes": s.EvictedBytes,
				"rejected":      s.Rejected,
				"grown":         s.Grown,
			}
		})
		if o.Stats != nil {
			reg.SetCounters(o.Stats)
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

// Builds returns how many index builds the engine has performed: at most
// two per class between evictions — its first cluster, then every cluster
// for a request the first does not fill — and none for a request a cached
// entry covers (tests assert on this).
func (e *Engine) Builds() int64 { return e.builds.Load() }

// Query runs one request through the five steps of a served query
// (DESIGN §12): it arrives decoded; the frame opens (deadline, trace
// identity, root span); serve admits it (a worker slot, else a bounded
// queue slot, else shed), resolves the index (canonicalise, cache hit or
// singleflight build of the class's next wider entry) and enumerates,
// again from a wider entry when the first came up short; the frame's tail
// files it.
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
	// boundaries.
	var led *telemetry.Ledger
	if e.opts.Telemetry != nil {
		led = telemetry.NewLedger()
	}

	resp, waited, err := e.serve(call, req, led)
	if errors.Is(err, context.DeadlineExceeded) {
		e.deadlines.Add(1)
	}
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
		call.Span.Annotate(obs.String("cache_hit", strconv.FormatBool(resp.CacheHit)),
			obs.String("query_hash", resp.QueryHash))
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
	need, refusal := e.frame.Window(req.Offset, req.Limit, req.CountOnly)
	if refusal != "" {
		return nil, 0, fmt.Errorf("%w: %s", ErrBadQuery, refusal)
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
	resp, err := e.run(call.Ctx, req, need, led)
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

// class is one request's view of its query class: the canonical key and
// the request's own permutation onto the canonical form, plus — computed
// by the request's first build and reused by its second — the form
// preprocessed against the resident graph (verdict tables attached) and
// the class's ascending pivot list. No index keeps the last two.
type class struct {
	query *graph.Graph
	key   string
	perm  []int // perm[request vertex] = canonical position

	tree   *order.QueryTree // nil until a build needs it
	pivots []graph.VertexID
}

// run resolves the index and enumerates, need embeddings at most (0: all
// of them). Called with a worker slot held. An entry covers a prefix of
// the class's pivots, and its embeddings are the first ones of the
// complete index's, in the same order (DESIGN §12): when an incomplete
// entry yields fewer than need, the next wider one is built and the
// enumeration starts over. The build and enumeration layers open their
// own spans beneath the request span they find on ctx, so the trace shows
// the real phases (build → expand/refine, enumerate) rather than wrappers.
func (e *Engine) run(ctx context.Context, req Request, need int64, led *telemetry.Ledger) (*Response, error) {
	cl := &class{query: req.Query}
	cl.key, cl.perm = verify.CanonicalGraph(req.Query)
	resp := &Response{CacheHit: true, QueryHash: queryHash(cl.key)}
	// Any entry may fill a bounded window; only a complete one counts all.
	atLeast := 1
	if need == 0 {
		atLeast = everyPivot
	}
	for {
		ent, hit, buildTime, err := e.getIndex(ctx, cl, atLeast)
		resp.BuildTime += buildTime
		resp.CacheHit = resp.CacheHit && hit
		if err != nil {
			if ctx.Err() != nil {
				// Build cut short by the deadline: report what we know.
				resp.Partial = true
				return resp, context.Cause(ctx)
			}
			return nil, err
		}
		if err := e.enumerate(ctx, ent, cl.perm, req, need, led, resp); err != nil {
			resp.Partial = true
			return resp, err
		}
		// (An unbounded request, need 0, was given a complete entry.)
		if ent.covered == everyPivot || resp.Count >= need {
			return resp, nil
		}
		atLeast = ent.covered + 1
	}
}

// enumerate runs the request's window over ent's index into resp: the
// count, the page, and the time added to what earlier steps took.
func (e *Engine) enumerate(ctx context.Context, ent *entry, perm []int, req Request, need int64, led *telemetry.Ledger, resp *Response) error {
	m := enum.NewMatcher(ent.ix, enum.Options{
		Workers:  e.opts.Workers,
		Strategy: workload.FGD, // the library default (ceci.StrategyFine)
		Limit:    need,
		Stats:    e.opts.Stats,
		Ledger:   led,
	})

	page := Page{Width: len(perm)}
	enumStart := time.Now()
	if req.CountOnly {
		// No consumer: the count-only engine, which tallies the last
		// depth in one step, clamped to the limit exactly.
		n, _, err := m.Enumerate(ctx, nil)
		resp.EnumTime += time.Since(enumStart)
		resp.Count = n
		resp.Page = page
		return err
	}

	// Shard mode: enumerated ids are shard-local; responses speak global
	// (source graph) ids so the router can merge shards without a map.
	var globals []graph.VertexID
	if sc := e.opts.Shard; sc != nil {
		globals = sc.Globals
	}

	// The page is collected into one flat array, sized for a full page
	// up to pagePrealloc embeddings and grown by append beyond that.
	page.IDs = make([]graph.VertexID, 0, int(min(need-req.Offset, pagePrealloc))*page.Width)
	var count atomic.Int64
	var mu sync.Mutex
	err := m.ForEachCtx(ctx, func(emb []graph.VertexID) bool {
		if count.Add(1) <= req.Offset {
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
	resp.EnumTime += time.Since(enumStart)
	resp.Count = count.Load()
	resp.Page = page
	return err
}

// getIndex returns an entry of the class that covers atLeast so many of
// its root candidates, from the cache, from a build in flight, or by
// building the one icec.NextCoverage names (once, via singleflight). hit is
// true only for the first of these; buildTime is what a build of its own
// took.
func (e *Engine) getIndex(ctx context.Context, cl *class, atLeast int) (ent *entry, hit bool, buildTime time.Duration, err error) {
	for {
		// One step, lookup and flight check: a leader inserts before it
		// leaves the flight table, so a build finishing now is found in
		// one place or the other and never repeated.
		e.buildMu.Lock()
		if ent, ok := e.cache.get(cl.key, atLeast); ok {
			e.buildMu.Unlock()
			return ent, true, 0, nil
		}
		if call, ok := e.building[cl.key]; ok {
			e.buildMu.Unlock()
			// Follow a build in flight. If the leader's deadline killed
			// the build but ours is still alive, or the leader built for a
			// smaller need than ours, loop and retry (we may become the
			// next leader).
			select {
			case <-call.done:
				if call.err != nil {
					if isCtxErr(call.err) && ctx.Err() == nil {
						continue
					}
					return nil, false, 0, call.err
				}
				if call.entry.covered < atLeast {
					continue
				}
				return call.entry, false, 0, nil
			case <-ctx.Done():
				return nil, false, 0, context.Cause(ctx)
			}
		}
		call := &buildCall{done: make(chan struct{})}
		e.building[cl.key] = call
		e.buildMu.Unlock()

		// The build opens its own span (expand/refine children) beneath
		// the request span riding ctx; no wrapper span here.
		buildStart := time.Now()
		call.entry, call.err = e.buildEntry(ctx, cl, atLeast)
		buildTime = time.Since(buildStart)

		e.buildMu.Lock()
		delete(e.building, cl.key)
		e.buildMu.Unlock()
		close(call.done)

		return call.entry, false, buildTime, call.err
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

// buildEntry builds the index icec.NextCoverage names for a request that needs
// atLeast so many root candidates covered, and inserts it into the cache,
// over a narrower incumbent if there is one. What is indexed is the
// query's canonical form under the engine's static order, never the query
// itself: isomorphic queries produce the same graph, so the entry — its
// matching order, its symmetry-breaking representatives, its pivot list,
// the order its embeddings come out in — is a function of the class, not
// of whichever twin arrived first, and a page is the same page before and
// after an eviction.
func (e *Engine) buildEntry(ctx context.Context, cl *class, atLeast int) (*entry, error) {
	if cl.tree == nil {
		if err := e.preprocess(cl); err != nil {
			return nil, err
		}
	}
	total := len(cl.pivots)
	k := icec.NextCoverage(atLeast, total)
	ix, err := icec.BuildCtx(ctx, e.data, cl.tree, icec.Options{
		Workers: e.opts.Workers,
		Stats:   e.opts.Stats,
		Pivots:  cl.pivots[:k],
	})
	if err != nil {
		return nil, err
	}
	e.builds.Add(1)
	ent := &entry{key: cl.key, ix: ix, bytes: entryBytes(cl.key, ix), covered: k}
	if k == total {
		ent.covered = everyPivot
	}
	e.cache.add(ent)
	return ent, nil
}

// preprocess fills cl.tree and cl.pivots: the canonical form's query tree
// over the resident graph, and the root candidates whose clusters are the
// class's to enumerate, ascending — every one of them on a single node.
//
// Shard mode adds only what is the shard's: the index root is forced to
// the canonical anchor (the form's minimum-eccentricity vertex, refused
// when further than the halo radius from some query vertex), so every
// shard partitions embeddings by the same query vertex, and the pivots
// are the ones this shard owns — clusters anchored on halo vertices
// belong to the shard that owns them.
func (e *Engine) preprocess(cl *class) error {
	stored, err := canonicalForm(cl.query, cl.perm)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	sc := e.opts.Shard
	popts := order.Options{ForcedRoot: -1, Heuristic: e.opts.Order}
	if sc != nil {
		anchor, ecc := order.Anchor(stored)
		if ecc > sc.Radius {
			return fmt.Errorf("%w: query anchor eccentricity %d exceeds shard halo radius %d; repartition with -radius >= %d",
				ErrBadQuery, ecc, sc.Radius, ecc)
		}
		popts.ForcedRoot = int(anchor)
	}
	tree, err := order.Preprocess(e.data, stored, popts)
	if err != nil {
		return fmt.Errorf("%w: %v", ErrBadQuery, err)
	}
	// Non-nil even when empty, so the index build restricts rather than
	// re-deriving root candidates.
	pivots := tree.Filter(e.data).Candidates(tree.Root)
	if sc != nil {
		pivots = slices.DeleteFunc(pivots, func(v graph.VertexID) bool {
			_, owned := slices.BinarySearch(sc.OwnedLocals, v)
			return !owned
		})
	}
	cl.tree, cl.pivots = tree, pivots
	return nil
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
