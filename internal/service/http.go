package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"ceci/internal/buildinfo"
	"ceci/internal/graph"
	"ceci/internal/obs"
)

// QueryRequest is the wire form of POST /query. The pattern graph comes
// either as .lg text ("query") or inline ("labels" + "edges"); exactly
// one form must be present.
type QueryRequest struct {
	// Query is the pattern in the labeled-graph text format
	// ("t n m", "v id label", "e u v" lines).
	Query string `json:"query,omitempty"`
	// Labels gives per-vertex labels for the inline form; vertex i has
	// label Labels[i].
	Labels []uint32 `json:"labels,omitempty"`
	// Edges lists undirected edges [u, v] over the inline vertices.
	Edges [][2]uint32 `json:"edges,omitempty"`

	Limit     int64 `json:"limit,omitempty"`
	Offset    int64 `json:"offset,omitempty"`
	TimeoutMS int64 `json:"timeout_ms,omitempty"`
	CountOnly bool  `json:"count_only,omitempty"`
}

// QueryResponse is the wire form of a query result. Deadline-exceeded
// responses (HTTP 504) still carry the partial count with Partial=true.
type QueryResponse struct {
	Count      int64              `json:"count"`
	Embeddings [][]graph.VertexID `json:"embeddings,omitempty"`
	CacheHit   bool               `json:"cache_hit"`
	Partial    bool               `json:"partial,omitempty"`
	BuildMS    float64            `json:"build_ms"`
	EnumMS     float64            `json:"enum_ms"`
	// TraceID keys this query's record in /queryz and, when the query
	// was sampled, its span tree at /tracez/{trace_id}.
	TraceID string `json:"trace_id,omitempty"`
	// QueryHash is the query's isomorphism-class identity.
	QueryHash string `json:"query_hash,omitempty"`
	Error     string `json:"error,omitempty"`
}

// HealthResponse is the wire form of GET /healthz. Liveness and
// readiness are distinct: a process that answers at all is live, but
// Ready is true only once the resident graph (and shard partition, in
// shard mode) is loaded and queries can be served. `GET /healthz?ready=1`
// returns 503 until then, so routers and smoke tests don't race startup.
type HealthResponse struct {
	Status       string         `json:"status"`
	Ready        bool           `json:"ready"`
	DataVertices int            `json:"data_vertices"`
	DataEdges    int            `json:"data_edges"`
	DataLabels   int            `json:"data_labels"`
	Build        buildinfo.Info `json:"build"`
	// Shard identity, present in shard mode only.
	ShardID     *int `json:"shard_id,omitempty"`
	ShardCount  int  `json:"shard_count,omitempty"`
	ShardRadius int  `json:"shard_radius,omitempty"`
	ShardOwned  int  `json:"shard_owned,omitempty"`
}

// QueryzResponse is the wire form of GET /queryz: the flight recorder's
// view of recent and slowest queries.
type QueryzResponse struct {
	// Total counts every query ever recorded, including those evicted
	// from the ring.
	Total uint64 `json:"total"`
	// Recent lists retained queries, newest first.
	Recent []obs.QueryRecord `json:"recent"`
	// Slowest lists the K slowest queries ever, slowest first.
	Slowest []obs.QueryRecord `json:"slowest"`
}

// Serving is an HTTP server running on a bound listener: the serve,
// wait, drain lifecycle ceciserve and ceciroute share.
type Serving struct {
	srv  *http.Server
	errc chan error
}

// Serve starts serving h on ln in the background.
func Serve(ln net.Listener, h http.Handler) *Serving {
	s := &Serving{
		srv:  &http.Server{Handler: h, ReadHeaderTimeout: 5 * time.Second},
		errc: make(chan error, 1),
	}
	go func() {
		if err := s.srv.Serve(ln); err != nil && !errors.Is(err, http.ErrServerClosed) {
			s.errc <- err
		}
	}()
	return s
}

// Close stops the server at once, cutting off requests in flight.
func (s *Serving) Close() error { return s.srv.Close() }

// Wait blocks until the server fails or ctx is done, then drains it: the
// listener stops accepting, in-flight requests get drain to finish, and
// whatever remains is cut off. name prefixes the lines logged to logw.
func (s *Serving) Wait(ctx context.Context, drain time.Duration, logw io.Writer, name string) error {
	select {
	case err := <-s.errc:
		return err
	case <-ctx.Done():
	}
	fmt.Fprintf(logw, "%s: shutting down (drain %v)\n", name, drain)
	drainCtx, cancel := context.WithTimeout(context.Background(), drain)
	defer cancel()
	if err := s.srv.Shutdown(drainCtx); err != nil {
		s.srv.Close()
		return fmt.Errorf("drain incomplete: %w", err)
	}
	fmt.Fprintf(logw, "%s: clean shutdown\n", name)
	return nil
}

// Handler returns the engine's HTTP API:
//
//	POST /query             run a match request (JSON in/out; accepts and
//	                        emits W3C traceparent headers)
//	GET  /healthz           liveness + data graph shape + build identity
//	GET  /cachez            index cache statistics
//	GET  /queryz            flight recorder: recent + slowest queries
//	                        (?limit=N caps each list, ?min_ms=D keeps
//	                        only queries at least that slow)
//	GET  /tracez/{traceID}  a sampled query's span tree as Chrome
//	                        trace_event JSON
//	GET  /trace             the tracer's live span forest as JSON
//	GET  /statz             telemetry hub: SLO burn state, ledger
//	                        totals, time-series rollups
//
// /statz requires Options.Telemetry. When the engine has a
// Registry, its metric routes (/metrics, /metrics.json, /debug/pprof/)
// are mounted as the fallback.
func (e *Engine) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /query", e.handleQuery)
	mux.HandleFunc("GET /healthz", e.handleHealthz)
	mux.HandleFunc("GET /cachez", e.handleCachez)
	e.frame.MountDebug(mux)
	if reg := e.opts.Registry; reg != nil {
		mux.Handle("/", reg.Handler())
	}
	return mux
}

func (e *Engine) handleQuery(w http.ResponseWriter, r *http.Request) {
	wire, q, status, err := ReadQueryRequest(w, r)
	if err != nil {
		WriteJSON(w, status, QueryResponse{Error: err.Error()})
		return
	}
	req := Request{
		Query:     q,
		Limit:     wire.Limit,
		Offset:    wire.Offset,
		Timeout:   time.Duration(wire.TimeoutMS) * time.Millisecond,
		CountOnly: wire.CountOnly,
	}
	ctx, joined := TraceIngress(r)
	resp, err := e.Query(ctx, req)
	wire2 := QueryResponse{}
	var page Page
	var spans *obs.Trace
	if resp != nil {
		// Server-Timing (phase breakdown plus SLO state): lets browsers
		// and clients see where the request's time went without parsing
		// the body.
		w.Header().Set("Server-Timing", serverTiming(e, resp))
		wire2 = QueryResponse{
			Count:     resp.Count,
			CacheHit:  resp.CacheHit,
			Partial:   resp.Partial,
			BuildMS:   float64(resp.BuildTime) / float64(time.Millisecond),
			EnumMS:    float64(resp.EnumTime) / float64(time.Millisecond),
			TraceID:   resp.TraceID,
			QueryHash: resp.QueryHash,
		}
		page = resp.Page
		// Egress: the response traceparent names the request's root span,
		// so a calling service can stitch our subtree into its own trace.
		if resp.Trace.Valid() {
			w.Header().Set("traceparent", resp.Trace.Traceparent())
		}
		// A shard answering a leg of somebody's trace sends its subtree
		// back with the answer, so the router never has to come and ask.
		// Nobody else gets the member: see writeQueryJSON.
		if e.opts.Shard != nil && joined {
			spans = resp.Spans
		}
	}
	status = statusFor(err)
	if err != nil {
		wire2.Error = err.Error()
		if status == 429 {
			w.Header().Set("Retry-After", "1")
		}
		if status == 504 {
			wire2.Partial = true
		}
	}
	writeQueryJSON(w, status, wire2, page, spans)
}

func (e *Engine) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	// An engine only exists with its graph resident, so it is always
	// ready; the pre-load 503 phase is served by the startup gate in
	// cmd/ceciserve before this handler is swapped in.
	h := HealthResponse{
		Status:       "ok",
		Ready:        true,
		DataVertices: e.data.NumVertices(),
		DataEdges:    e.data.NumEdges(),
		DataLabels:   e.data.NumLabels(),
		Build:        buildinfo.Get(),
	}
	if sc := e.opts.Shard; sc != nil {
		id := sc.ID
		h.ShardID = &id
		h.ShardCount = sc.Shards
		h.ShardRadius = sc.Radius
		h.ShardOwned = len(sc.OwnedLocals)
	}
	WriteJSON(w, http.StatusOK, h)
}

// serverTiming renders the Server-Timing response header: the query's
// phase durations (queue, build, enum, total) plus the current SLO
// state ("ok" or "breach").
func serverTiming(e *Engine, resp *Response) string {
	b := make([]byte, 0, 96) // on every reply of every engine: appended, not formatted
	b = appendDur(b, "queue", resp.QueueWait)
	b = appendDur(b, ", build", resp.BuildTime)
	b = appendDur(b, ", enum", resp.EnumTime)
	b = appendDur(b, ", total", resp.QueueWait+resp.BuildTime+resp.EnumTime)
	if h := e.opts.Telemetry; h != nil {
		if h.SLO().State().Breach() {
			b = append(b, `, slo;desc="breach"`...)
		} else {
			b = append(b, `, slo;desc="ok"`...)
		}
	}
	return string(b)
}

// appendDur appends one Server-Timing metric, "name;dur=%.1f" in
// milliseconds. The tenths come from integer arithmetic, which prints
// what %.1f prints of the quotient unless d lies exactly between two
// tenths (there the quotient's last bit decides) or is too long for the
// argument to hold; those go through strconv.
func appendDur(b []byte, name string, d time.Duration) []byte {
	b = append(append(b, name...), ";dur="...)
	const tenth = time.Millisecond / 10
	if rem := d % tenth; d >= 0 && d < 1<<40 && rem != tenth/2 {
		tenths := int64(d / tenth)
		if rem > tenth/2 {
			tenths++
		}
		return append(strconv.AppendInt(b, tenths/10, 10), '.', byte('0'+tenths%10))
	}
	return strconv.AppendFloat(b, float64(d)/float64(time.Millisecond), 'f', 1, 64)
}

// queryzFilters are the /queryz list filters parsed from the URL.
type queryzFilters struct {
	limit int           // max records per list; 0 = unlimited
	minMS time.Duration // keep only queries at least this slow
}

// parseQueryzFilters validates ?limit= and ?min_ms=. Both are optional;
// negative or non-numeric values are rejected.
func parseQueryzFilters(q url.Values) (queryzFilters, error) {
	var f queryzFilters
	if s := q.Get("limit"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return f, fmt.Errorf("bad limit %q: want a non-negative integer", s)
		}
		f.limit = n
	}
	if s := q.Get("min_ms"); s != "" {
		ms, err := strconv.ParseFloat(s, 64)
		if err != nil || ms < 0 || math.IsNaN(ms) || math.IsInf(ms, 0) {
			return f, fmt.Errorf("bad min_ms %q: want a non-negative number", s)
		}
		f.minMS = time.Duration(ms * float64(time.Millisecond))
	}
	return f, nil
}

// apply filters one record list (order preserved).
func (f queryzFilters) apply(recs []obs.QueryRecord) []obs.QueryRecord {
	if f.minMS > 0 {
		kept := recs[:0]
		for _, r := range recs {
			if time.Duration(r.TotalUS)*time.Microsecond >= f.minMS {
				kept = append(kept, r)
			}
		}
		recs = kept
	}
	if f.limit > 0 && len(recs) > f.limit {
		recs = recs[:f.limit]
	}
	return recs
}

// MountDebug registers the one set of debug handlers the engine and the
// shard router both serve: over the frame's flight recorder GET /queryz
// and /tracez/{traceID}, over its tracer GET /trace, and, when it has a
// hub, GET /statz.
func (f *Frame) MountDebug(mux *http.ServeMux) {
	mux.HandleFunc("GET /queryz", f.handleQueryz)
	mux.HandleFunc("GET /tracez/{traceID}", f.handleTracez)
	mux.HandleFunc("GET /trace", f.handleTrace)
	if f.Telemetry != nil {
		mux.HandleFunc("GET /statz", f.handleStatz)
	}
}

// handleTrace serves the tracer's live span forest as indented JSON
// (null when the frame has no tracer); open spans carry "running": true.
func (f *Frame) handleTrace(w http.ResponseWriter, _ *http.Request) {
	b, err := json.MarshalIndent(f.Tracer.Tree(), "", "  ")
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleQueryz serves the flight recorder; ?limit= and ?min_ms= filter
// both lists.
func (f *Frame) handleQueryz(w http.ResponseWriter, r *http.Request) {
	filters, err := parseQueryzFilters(r.URL.Query())
	if err != nil {
		WriteJSON(w, http.StatusBadRequest, map[string]string{"error": err.Error()})
		return
	}
	recent := filters.apply(f.flight.Recent())
	slowest := filters.apply(f.flight.Slowest())
	WriteJSON(w, http.StatusOK, QueryzResponse{
		Total:   f.flight.Total(),
		Recent:  recent,
		Slowest: slowest,
	})
}

// handleStatz serves the telemetry hub's full view: SLO burn state,
// ledger totals, and time-series rollups.
func (f *Frame) handleStatz(w http.ResponseWriter, _ *http.Request) {
	b, err := f.Telemetry.StatzJSON()
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(b)
}

// handleTracez serves one query's span tree by trace ID as Chrome
// trace_event JSON (load in chrome://tracing or Perfetto).
func (f *Frame) handleTracez(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("traceID")
	rec, ok := f.flight.Find(id)
	if !ok {
		WriteJSON(w, http.StatusNotFound,
			map[string]string{"error": "trace " + id + " not found (evicted, or never ran here)"})
		return
	}
	// The record holds the spans as they were recorded — and, on a router,
	// as the shards' replies carried them; this is where they become a tree.
	spans := rec.Trace.Nodes()
	if len(spans) == 0 {
		WriteJSON(w, http.StatusNotFound,
			map[string]string{"error": "trace " + id + " was not sampled: no spans recorded"})
		return
	}
	doc, err := obs.ChromeTrace(spans)
	if err != nil {
		WriteJSON(w, http.StatusInternalServerError, map[string]string{"error": err.Error()})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Write(doc)
}

func (e *Engine) handleCachez(w http.ResponseWriter, _ *http.Request) {
	WriteJSON(w, http.StatusOK, e.cache.stats())
}

// WriteJSON writes v as the JSON body of a response with the given
// status, through encoding/json's reflection: the health, cache, flight
// and error documents. A query result goes through WriteQueryJSON.
// Exported for the shard router, which answers in the same form.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// Graph materializes the pattern graph from whichever wire form is set:
// the second half of the decode step, on the engine and on the shard
// router alike.
func (q *QueryRequest) Graph() (*graph.Graph, error) {
	hasText := q.Query != ""
	hasInline := len(q.Labels) > 0
	switch {
	case hasText && hasInline:
		return nil, fmt.Errorf("%w: give either query text or labels/edges, not both", ErrBadQuery)
	case hasText:
		// No body within MaxRequestBytes declares more vertices than it
		// has bytes, so an id beyond that is refused, not allocated for.
		g, err := graph.LoadLabeledMax(strings.NewReader(q.Query), MaxRequestBytes)
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return g, nil
	case hasInline:
		n := len(q.Labels)
		b := graph.NewBuilder(n)
		for v, l := range q.Labels {
			if l > graph.MaxLabelValue {
				return nil, fmt.Errorf("%w: label %d of vertex %d out of range [0,%d]", ErrBadQuery, l, v, graph.MaxLabelValue)
			}
			b.SetLabel(graph.VertexID(v), l)
		}
		for _, e := range q.Edges {
			if int(e[0]) >= n || int(e[1]) >= n {
				return nil, fmt.Errorf("%w: edge [%d,%d] references vertex >= %d", ErrBadQuery, e[0], e[1], n)
			}
			b.AddEdge(e[0], e[1])
		}
		g, err := b.Build()
		if err != nil {
			return nil, fmt.Errorf("%w: %v", ErrBadQuery, err)
		}
		return g, nil
	default:
		return nil, fmt.Errorf("%w: no query given", ErrBadQuery)
	}
}
