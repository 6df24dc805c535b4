package shard

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/buildinfo"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/service"
	"ceci/internal/telemetry"
)

// Replica is one shard server the router can send a leg to. Health
// state is maintained by the background checker; inflight counts the
// router's own outstanding requests (shown in /shardz).
type Replica struct {
	Shard int
	URL   string

	client  *service.Client // query path: retries + backoff
	healthc *service.Client // probe path: single attempt

	healthy  atomic.Bool
	checked  atomic.Bool // at least one probe ever succeeded
	fails    atomic.Int64
	inflight atomic.Int64
	lastErr  atomic.Value // string
}

// Healthy reports whether the replica passed its latest probes.
func (r *Replica) Healthy() bool { return r.healthy.Load() }

// Checked reports whether the replica has ever passed a probe.
func (r *Replica) Checked() bool { return r.checked.Load() }

// Inflight returns the router's outstanding requests to this replica.
func (r *Replica) Inflight() int64 { return r.inflight.Load() }

// RouterOptions configures a Router. Zero values get serving defaults.
type RouterOptions struct {
	// Shards[i] lists the replica base URLs serving shard i. Every
	// shard needs at least one replica.
	Shards [][]string
	// Radius is the fleet's halo radius (from the manifest): queries
	// whose anchor eccentricity exceeds it are rejected at the router
	// with 400 instead of scattering a doomed request.
	Radius int
	// Policy rotates each shard's primary replica across requests (nil:
	// a fresh NewRoundRobin, the only rule there is). It stays a field
	// because benchmark/sut.go sets it.
	Policy *RoundRobin
	// HealthInterval is the probe period (default 1s).
	HealthInterval time.Duration
	// HealthTimeout bounds one probe (default 2s).
	HealthTimeout time.Duration
	// HealthFails is how many consecutive probe failures exclude a
	// replica (default 2). One success re-admits it.
	HealthFails int
	// DefaultTimeout applies when a request carries none (default 30s);
	// MaxTimeout clamps request-supplied timeouts (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// DeadlineMargin is held back from the per-shard deadline so the
	// router can merge and respond inside the caller's budget
	// (default 50ms).
	DeadlineMargin time.Duration
	// MaxLimit caps merged embeddings per request (default 10000).
	MaxLimit int64
	// Tracer + TraceSample mirror service.Options: sampled requests get
	// a routing span tree with one scatter child per shard; the shards'
	// own span trees arrive on their leg replies and are stitched under
	// it when /tracez is read.
	Tracer      *obs.Tracer
	TraceSample float64
	// Registry, when non-nil, receives router gauges and the latency
	// histogram, and serves the metric routes under the handler.
	Registry *obs.Registry
	// Telemetry, when non-nil, observes routed queries (SLO burn) and
	// serves /statz.
	Telemetry *telemetry.Hub
}

// withDefaults fills the router's own settings; the frame's (timeouts,
// MaxLimit, TraceSample) are defaulted by service.NewFrame.
func (o RouterOptions) withDefaults() RouterOptions {
	if o.Policy == nil {
		o.Policy = NewRoundRobin()
	}
	if o.HealthInterval <= 0 {
		o.HealthInterval = time.Second
	}
	if o.HealthTimeout <= 0 {
		o.HealthTimeout = 2 * time.Second
	}
	if o.HealthFails <= 0 {
		o.HealthFails = 2
	}
	if o.DeadlineMargin <= 0 {
		o.DeadlineMargin = 50 * time.Millisecond
	}
	return o
}

// RouteResponse is the router's wire form: the merged QueryResponse
// plus explicit per-shard accounting. A killed shard surfaces as
// Partial=true with its id in ShardsFailed — never a silent undercount.
type RouteResponse struct {
	service.QueryResponse
	ShardsTotal  int               `json:"shards_total"`
	ShardsOK     int               `json:"shards_ok"`
	ShardsFailed []int             `json:"shards_failed,omitempty"`
	ShardErrors  map[string]string `json:"shard_errors,omitempty"`
	// Failovers counts scatter legs answered by a replica other than
	// the first one asked.
	Failovers int `json:"failovers,omitempty"`
}

// RouterHealth is the router's GET /healthz document.
type RouterHealth struct {
	Status string         `json:"status"`
	Ready  bool           `json:"ready"`
	Shards int            `json:"shards"`
	Radius int            `json:"radius"`
	Build  buildinfo.Info `json:"build"`
}

// ShardzReplica is one replica's status in GET /shardz.
type ShardzReplica struct {
	URL      string `json:"url"`
	Healthy  bool   `json:"healthy"`
	Checked  bool   `json:"checked"`
	Inflight int64  `json:"inflight"`
	Fails    int64  `json:"consecutive_fails"`
	LastErr  string `json:"last_error,omitempty"`
}

// ShardzResponse is the GET /shardz document.
type ShardzResponse struct {
	Radius int               `json:"radius"`
	Shards [][]ShardzReplica `json:"shards"`
}

// Router scatter-gathers queries across a shard fleet. It is stateless
// with respect to the data: shards hold the partitions; the router
// holds only replica health and observability state.
type Router struct {
	opts   RouterOptions
	shards [][]*Replica
	frame  *service.Frame // deadline, trace identity, flight record: the engine's own

	stopOnce sync.Once
	stop     chan struct{}
	done     sync.WaitGroup

	requests  atomic.Int64
	failures  atomic.Int64 // responses with zero usable shards
	partials  atomic.Int64 // responses missing at least one shard
	failovers atomic.Int64 // legs answered by a replica other than the first asked
}

// NewRouter builds a Router over the given fleet. Call Start to begin
// health checking (until then every replica is unchecked and scatter
// falls back to trying all of them).
func NewRouter(opts RouterOptions) (*Router, error) {
	o := opts.withDefaults()
	if len(o.Shards) == 0 {
		return nil, errors.New("shard: router needs at least one shard")
	}
	rt := &Router{
		opts: o,
		stop: make(chan struct{}),
		frame: service.NewFrame(service.Frame{
			Span:           "route-query",
			DefaultTimeout: o.DefaultTimeout,
			MaxTimeout:     o.MaxTimeout,
			MaxLimit:       o.MaxLimit,
			Tracer:         o.Tracer,
			TraceSample:    o.TraceSample,
			Telemetry:      o.Telemetry,
		}),
	}
	for i, urls := range o.Shards {
		if len(urls) == 0 {
			return nil, fmt.Errorf("shard: shard %d has no replicas", i)
		}
		var reps []*Replica
		for _, u := range urls {
			rep := &Replica{
				Shard:   i,
				URL:     u,
				client:  service.NewClient(u, nil),
				healthc: service.NewClient(u, nil),
			}
			rep.healthc.SetRetry(1, 0, 0) // probes are their own retry loop
			rep.lastErr.Store("")
			reps = append(reps, rep)
		}
		rt.shards = append(rt.shards, reps)
	}
	if reg := o.Registry; reg != nil {
		reg.SetHistogram("router_latency_seconds", rt.frame.Latency())
		reg.SetSource("router", func() map[string]int64 {
			healthy := int64(0)
			for _, reps := range rt.shards {
				for _, rep := range reps {
					if rep.Healthy() {
						healthy++
					}
				}
			}
			return map[string]int64{
				"requests":         rt.requests.Load(),
				"failures":         rt.failures.Load(),
				"partials":         rt.partials.Load(),
				"failovers":        rt.failovers.Load(),
				"healthy_replicas": healthy,
				"trace_reads":      int64(rt.frame.Flight().Finds()),
			}
		})
		if o.Tracer != nil {
			reg.SetTracer(o.Tracer)
		}
		o.Telemetry.BindRegistry(reg)
	}
	return rt, nil
}

// Flight returns the router's flight recorder (/queryz backing store).
func (rt *Router) Flight() *obs.FlightRecorder { return rt.frame.Flight() }

// Start launches the health-check loop: an immediate probe of every
// replica, then one round per HealthInterval.
func (rt *Router) Start() {
	rt.done.Add(1)
	go func() {
		defer rt.done.Done()
		rt.probeAll()
		t := time.NewTicker(rt.opts.HealthInterval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				rt.probeAll()
			case <-rt.stop:
				return
			}
		}
	}()
}

// Stop ends the health-check loop.
func (rt *Router) Stop() {
	rt.stopOnce.Do(func() { close(rt.stop) })
	rt.done.Wait()
}

// Ready reports whether every shard has at least one probed-healthy
// replica — the router's own readiness condition.
func (rt *Router) Ready() bool {
	for _, reps := range rt.shards {
		ok := false
		for _, rep := range reps {
			if rep.Checked() && rep.Healthy() {
				ok = true
				break
			}
		}
		if !ok {
			return false
		}
	}
	return true
}

// probeAll health-checks every replica concurrently.
func (rt *Router) probeAll() {
	var wg sync.WaitGroup
	for _, reps := range rt.shards {
		for _, rep := range reps {
			wg.Add(1)
			go func(rep *Replica) {
				defer wg.Done()
				rt.probe(rep)
			}(rep)
		}
	}
	wg.Wait()
}

// probe runs one readiness check: /healthz?ready=1 within
// HealthTimeout. HealthFails consecutive failures exclude the replica;
// a single success re-admits it.
func (rt *Router) probe(rep *Replica) {
	ctx, cancel := context.WithTimeout(context.Background(), rt.opts.HealthTimeout)
	defer cancel()
	if err := rep.healthc.Ready(ctx); err != nil {
		rep.lastErr.Store(err.Error())
		if rep.fails.Add(1) >= int64(rt.opts.HealthFails) {
			rep.healthy.Store(false)
		}
		return
	}
	rep.lastErr.Store("")
	rep.fails.Store(0)
	rep.healthy.Store(true)
	rep.checked.Store(true)
}

// Handler returns the router's HTTP API:
//
//	POST /query             scatter-gather a match request across shards
//	GET  /healthz           liveness (+ ?ready=1: 503 until every shard
//	                        has a probed-healthy replica)
//	GET  /shardz            per-replica health, load, and last error
//	GET  /queryz            router flight recorder (?format=text,
//	                        ?limit=N, ?min_ms=D)
//	GET  /tracez/{traceID}  stitched span tree spanning router + shards
//	                        (no shard is contacted: their spans came
//	                        with their leg replies)
//	GET  /statz             telemetry hub (requires Options.Telemetry)
//
// The debug routes are the engine's own handlers (service.Frame.MountDebug).
func (rt *Router) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", rt.handleQuery)
	mux.HandleFunc("GET /healthz", rt.handleHealthz)
	mux.HandleFunc("GET /shardz", rt.handleShardz)
	rt.frame.MountDebug(mux)
	if reg := rt.opts.Registry; reg != nil {
		mux.Handle("/", reg.Handler())
	}
	return mux
}

// maxLegSpanBytes bounds the span bytes the router keeps from one leg
// reply. A shard's subtree is a couple of kilobytes; a reply carrying
// more than this is misbehaving, and its spans are dropped (the scatter
// span says how many bytes) rather than pinned in the flight ring and
// the slowest-K index.
const maxLegSpanBytes = 64 << 10

// shardResult is one scatter leg's outcome.
type shardResult struct {
	shard int
	resp  *service.QueryResponse // Embeddings nil: the page is beside it
	page  service.Page
	// The leg asked for the shard's rows [from, upto): from is where its
	// page starts; a count leg asks for none (upto == from).
	from, upto int64
	spans      []byte // the shard's span subtree as its reply carried it, unparsed
	replica    *Replica
	err        error
	failedOver bool // answered by a replica other than the first asked
	// fill is the shard's next leg, a fill, when the window needed rows
	// of it that this leg's page does not hold.
	fill *shardResult
}

// usable reports whether the leg produced a mergeable response: success
// or a 504 that carried its partial counts.
func (r shardResult) usable() bool {
	if r.err == nil {
		return r.resp != nil
	}
	var apiErr *service.APIError
	return errors.As(r.err, &apiErr) &&
		apiErr.StatusCode == http.StatusGatewayTimeout && r.resp != nil
}

// failure is why the shard's answer cannot be merged, or "": a leg — the
// first round's or a fill — that failed, or whose embeddings are not
// width ids each.
func (r *shardResult) failure(width int) string {
	for leg := r; leg != nil; leg = leg.fill {
		switch {
		case !leg.usable() && leg.err != nil:
			return leg.err.Error()
		case !leg.usable():
			return "unreachable"
		case leg.page.Len() > 0 && leg.page.Width != width:
			return fmt.Sprintf("embeddings of %d vertices for a query of %d", leg.page.Width, width)
		}
	}
	return ""
}

// handleQuery is a routed query's five steps (DESIGN §12): decode, select
// (refuse what the fleet cannot answer whole), scatter, merge, encode —
// the middle three inside the frame the engine's queries run in.
func (rt *Router) handleQuery(w http.ResponseWriter, r *http.Request) {
	rt.requests.Add(1)
	refuse := func(status int, msg string) {
		service.WriteJSON(w, status, RouteResponse{QueryResponse: service.QueryResponse{Error: msg}})
	}
	wire, q, status, err := service.ReadQueryRequest(w, r)
	if err != nil {
		refuse(status, err.Error())
		return
	}
	// The routing span becomes the parent of every leg's shard subtree.
	ctx, _ := service.TraceIngress(r)
	call := rt.frame.Begin(ctx, q, time.Duration(wire.TimeoutMS)*time.Millisecond,
		obs.Int("shards", int64(len(rt.shards))))
	if msg := rt.refusal(wire, q); msg != "" {
		call.Finish(obs.QueryRecord{Outcome: http.StatusBadRequest})
		refuse(http.StatusBadRequest, msg)
		return
	}

	width := q.NumVertices()
	results := rt.scatter(call, wire, width)
	resp, page, status := rt.merge(wire, width, results)
	resp.TraceID = call.TraceID
	if call.Egress.Valid() {
		w.Header().Set("traceparent", call.Egress.Traceparent())
	}

	// The record holds the router's own spans as recorded and each
	// answering shard's as the bytes its reply carried.
	legSpans := make([][]byte, 0, len(results))
	for i := range results {
		for leg := &results[i]; leg != nil; leg = leg.fill {
			if leg.spans != nil {
				legSpans = append(legSpans, leg.spans)
			}
		}
	}
	call.Span.Annotate(obs.Int("shards_ok", int64(resp.ShardsOK)))
	call.Finish(obs.QueryRecord{
		Outcome:    status,
		QueryHash:  resp.QueryHash,
		CacheHit:   resp.CacheHit,
		Partial:    resp.Partial,
		Embeddings: resp.Count,
		BuildUS:    int64(resp.BuildMS * 1000),
		EnumUS:     int64(resp.EnumMS * 1000),
	}, legSpans...)
	service.WriteQueryJSON(w, status, resp, page)
}

// refusal is the select step: the reason this fleet cannot answer the
// request whole, or "" when it can.
func (rt *Router) refusal(wire service.QueryRequest, q *graph.Graph) string {
	if !q.Connected() {
		return "query graph must be connected"
	}
	if _, ecc := order.Anchor(q); ecc > rt.opts.Radius {
		return fmt.Sprintf("query anchor eccentricity %d exceeds fleet halo radius %d; repartition with a larger -radius", ecc, rt.opts.Radius)
	}
	if _, refusal := rt.frame.Window(wire.Offset, wire.Limit, wire.CountOnly); refusal != "" {
		return refusal
	}
	// Every first-round leg makes its shard enumerate up to offset+limit
	// rows (a count leg counts that far, the page leg skips offset of
	// them), and a fill leg reads rows below it; the fleet bounds that
	// reach by its MaxLimit, which must not exceed the shards' own.
	limit := rt.frame.PageLimit(wire.Limit)
	if maxLimit := rt.frame.MaxLimit; !wire.CountOnly && wire.Offset > maxLimit-limit {
		return fmt.Sprintf("offset %d + limit %d exceeds the fleet's max limit %d: a page may not reach past the first %d embeddings of a shard",
			wire.Offset, limit, maxLimit, maxLimit)
	}
	return ""
}

// legRequest is one shard's sub-request. In the first round (f nil) it
// is the caller's window with its page limit, so every shard counts up to
// offset+limit; shard 0 pages the window and the others only count it. A
// fill asks for f's rows of its shard. Either carries the budget left
// when it is made, less the margin the router keeps to merge and respond.
func (rt *Router) legRequest(ctx context.Context, wire service.QueryRequest, shard int, f *fill) service.QueryRequest {
	sub := wire
	switch {
	case f != nil:
		sub.Offset, sub.Limit = f.offset, f.limit
	case !wire.CountOnly:
		sub.Limit = rt.frame.PageLimit(wire.Limit)
		sub.CountOnly = shard > 0
	}
	if dl, ok := ctx.Deadline(); ok {
		remaining := time.Until(dl) - rt.opts.DeadlineMargin
		if remaining < time.Millisecond {
			remaining = time.Millisecond
		}
		sub.TimeoutMS = remaining.Milliseconds()
	}
	return sub
}

// scatter runs the query's legs (window.legs): each is sent when its
// round starts, and a fill leg's span is marked as one.
func (rt *Router) scatter(call *service.Call, wire service.QueryRequest, width int) []shardResult {
	return rt.window(wire).legs(len(rt.shards), width, func(shard int, f *fill) shardResult {
		leg := rt.legRequest(call.Ctx, wire, shard, f)
		if f == nil {
			return rt.queryShard(call.Ctx, shard, leg, call.Span)
		}
		return rt.queryShard(call.Ctx, shard, leg, call.Span, obs.String("round", "fill"))
	})
}

// queryShard runs one scatter leg: it asks the shard's replicas one at
// a time, the rotated primary first, and returns the first usable
// response. A failed reply moves the leg to the next replica at once; a
// 400 ends it — the query's fault, not the replica's — and so does a
// done ctx. Otherwise it returns the last replica's failure. attrs
// annotate the leg's span.
func (rt *Router) queryShard(ctx context.Context, shard int, req service.QueryRequest, parent *obs.Span, attrs ...obs.Attr) shardResult {
	sp := parent.Child("scatter", obs.Int("shard", int64(shard)))
	defer sp.End()
	if sp != nil {
		ctx = obs.ContextWithSpan(ctx, sp)
		if len(attrs) > 0 {
			sp.Annotate(attrs...)
		}
	}

	upto := req.Offset
	if !req.CountOnly {
		upto += req.Limit
	}
	res := shardResult{shard: shard}
	for i, rep := range rt.opts.Policy.Pick(shard, rt.pickReplicas(shard)) {
		rep.inflight.Add(1)
		resp, page, spans, err := rep.client.QueryPage(ctx, req)
		rep.inflight.Add(-1)
		if n := len(spans); n > maxLegSpanBytes {
			sp.Annotate(obs.Int("spans_dropped", int64(n)))
			spans = nil
		}
		res = shardResult{shard: shard, resp: resp, page: page, from: req.Offset, upto: upto,
			spans: spans, replica: rep, err: err, failedOver: i > 0}
		if res.usable() {
			if res.failedOver {
				rt.failovers.Add(1)
			}
			sp.Annotate(obs.String("replica", rep.URL))
			return res
		}
		if errors.Is(err, service.ErrBadQuery) || ctx.Err() != nil {
			break
		}
	}
	return res
}

// pickReplicas returns the shard's healthy replicas, falling back to
// all of them when none are (a probe may lag a just-restarted shard;
// trying is strictly better than refusing).
func (rt *Router) pickReplicas(shard int) []*Replica {
	all := rt.shards[shard]
	healthy := make([]*Replica, 0, len(all))
	for _, rep := range all {
		if rep.Healthy() {
			healthy = append(healthy, rep)
		}
	}
	if len(healthy) == 0 {
		return all
	}
	return healthy
}

// merge folds the scatter legs into one RouteResponse and the page it
// carries (returned beside it, for WriteQueryJSON). Counts add — each
// shard's first-round count — phase times take the fleet max over every
// leg (the critical path), cache_hit ANDs. Missing shards make the
// response Partial with explicit ids in shards_failed; a shard whose fill
// leg failed, or a leg whose embeddings are not width ids each (width is
// the query's vertex count), is missing too.
//
// Global pagination is best-effort: the caller's offset/limit window is
// cut from the usable shards' rows laid end to end in shard order, each
// shard's place in that lay-out given by the counts before it (shards
// emit global ids, and scatter fetched every row of the window that a
// shard has). A window inside one leg's page is a view of it; only a
// window that straddles shards copies ids.
func (rt *Router) merge(wire service.QueryRequest, width int, results []shardResult) (*RouteResponse, service.Page, int) {
	out := &RouteResponse{ShardsTotal: len(results)}
	out.CacheHit = true
	var page service.Page
	w := rt.window(wire)
	var start int64 // rows of the usable shards before this one
	var shardErrs map[string]string
	for i := range results {
		res := &results[i]
		if msg := res.failure(width); msg != "" {
			if shardErrs == nil {
				shardErrs = make(map[string]string)
			}
			shardErrs[strconv.Itoa(i)] = msg
			out.ShardsFailed = append(out.ShardsFailed, i)
			continue
		}
		out.ShardsOK++
		r := res.resp
		out.Count += r.Count
		out.CacheHit = out.CacheHit && r.CacheHit
		if out.QueryHash == "" {
			out.QueryHash = r.QueryHash
		}
		rows := res // the shard's last leg holds its rows of the window
		for leg := res; leg != nil; leg = leg.fill {
			if leg.failedOver {
				out.Failovers++
			}
			out.Partial = out.Partial || leg.resp.Partial
			out.BuildMS = max(out.BuildMS, leg.resp.BuildMS)
			out.EnumMS = max(out.EnumMS, leg.resp.EnumMS)
			rows = leg
		}

		n := w.rows(r.Count)
		lo, hi := w.part(start, n)
		start += n
		if lo >= hi {
			continue
		}
		part := rows.slice(lo, hi)
		if page.Len() == 0 {
			page = part
		} else {
			page.IDs = append(page.IDs, part.IDs...) // part's capacity is clipped: this copies
		}
	}
	out.ShardErrors = shardErrs

	if out.ShardsOK == 0 {
		rt.failures.Add(1)
		out.CacheHit = false
		out.Partial = true
		out.Error = "all shards failed"
		return out, service.Page{}, http.StatusBadGateway
	}
	if len(out.ShardsFailed) > 0 {
		rt.partials.Add(1)
		out.Partial = true
	}
	return out, page, http.StatusOK
}

func (rt *Router) handleHealthz(w http.ResponseWriter, r *http.Request) {
	ready := rt.Ready()
	status := http.StatusOK
	if r.URL.Query().Get("ready") == "1" && !ready {
		status = http.StatusServiceUnavailable
	}
	service.WriteJSON(w, status, RouterHealth{
		Status: "ok",
		Ready:  ready,
		Shards: len(rt.shards),
		Radius: rt.opts.Radius,
		Build:  buildinfo.Get(),
	})
}

func (rt *Router) handleShardz(w http.ResponseWriter, _ *http.Request) {
	out := ShardzResponse{Radius: rt.opts.Radius}
	for _, reps := range rt.shards {
		var row []ShardzReplica
		for _, rep := range reps {
			lastErr, _ := rep.lastErr.Load().(string)
			row = append(row, ShardzReplica{
				URL:      rep.URL,
				Healthy:  rep.Healthy(),
				Checked:  rep.Checked(),
				Inflight: rep.Inflight(),
				Fails:    rep.fails.Load(),
				LastErr:  lastErr,
			})
		}
		out.Shards = append(out.Shards, row)
	}
	service.WriteJSON(w, http.StatusOK, out)
}
