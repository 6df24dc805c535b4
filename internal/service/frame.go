package service

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"sync"
	"time"

	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/telemetry"
)

// Frame is the part of a served query that is the same whoever answers
// it — an Engine from its index or a shard router from its fleet: the
// deadline, the trace identity and root span, the page-size clamp, the
// one tail that files the finished query, and the debug routes that read
// what was filed. What lies between Begin and Finish is the server's own.
//
// The exported fields are settings, read-only once NewFrame has returned.
type Frame struct {
	// Span names the root span of a sampled query.
	Span string
	// DefaultTimeout applies when a request carries no timeout (default
	// 30s); MaxTimeout clamps the ones that do (default 5m).
	DefaultTimeout time.Duration
	MaxTimeout     time.Duration
	// MaxLimit is the largest page a request may ask for (default 10000).
	MaxLimit int64
	// Tracer records the spans of sampled queries; nil records none.
	Tracer *obs.Tracer
	// TraceSample is the head sampling rate of queries that arrive
	// without a trace of their own (zero means 1; negative samples none).
	TraceSample float64
	// Telemetry, when non-nil, observes every finished query.
	Telemetry *telemetry.Hub
	// Audit, when non-nil, receives one JSON line per finished query.
	Audit io.Writer

	flight  *obs.FlightRecorder
	latency *obs.Histogram
	audit   *auditLog
}

// auditLog serializes the audit writer: one encoder, one line at a time.
type auditLog struct {
	mu  sync.Mutex
	enc *json.Encoder
}

// NewFrame returns f, its zero settings defaulted, ready to serve.
func NewFrame(f Frame) *Frame {
	if f.DefaultTimeout <= 0 {
		f.DefaultTimeout = 30 * time.Second
	}
	if f.MaxTimeout <= 0 {
		f.MaxTimeout = 5 * time.Minute
	}
	if f.MaxLimit <= 0 {
		f.MaxLimit = 10000
	}
	if f.TraceSample == 0 {
		f.TraceSample = 1
	}
	f.flight = obs.NewFlightRecorder(obs.DefaultFlightSize, obs.DefaultSlowestK)
	f.latency = obs.NewHistogram(obs.LatencyBuckets())
	if f.Audit != nil {
		f.audit = &auditLog{enc: json.NewEncoder(f.Audit)}
	}
	return &f
}

// Flight returns the flight recorder Finish files into (never nil).
func (f *Frame) Flight() *obs.FlightRecorder { return f.flight }

// Latency returns the histogram of Begin-to-Finish seconds.
func (f *Frame) Latency() *obs.Histogram { return f.latency }

// PageLimit is the page size a request asks for: its limit, or MaxLimit
// when it gives none or a larger one.
func (f *Frame) PageLimit(limit int64) int64 {
	if limit <= 0 || limit > f.MaxLimit {
		return f.MaxLimit
	}
	return limit
}

// Window checks a request's window and sizes it: need is how many
// embeddings an enumeration must deliver to fill it — the offset plus the
// page limit, or the limit as given when only counting — and 0 when there
// is no bound (counting with no limit). A window is refused, with the
// reason, when a side is negative or its end does not fit an int64: a
// wrapped end reads as a negative limit, which enumeration takes for
// "unlimited".
func (f *Frame) Window(offset, limit int64, countOnly bool) (need int64, refusal string) {
	if offset < 0 || limit < 0 {
		return 0, "negative limit/offset"
	}
	if !countOnly {
		limit = f.PageLimit(limit)
	}
	if limit == 0 {
		return 0, ""
	}
	if offset > math.MaxInt64-limit {
		return 0, fmt.Sprintf("offset %d + limit %d overflows", offset, limit)
	}
	return offset + limit, ""
}

// TraceIngress is W3C trace-context ingress: a valid traceparent header
// joins the request to the caller's trace, sampling decision included
// (joined is true); a malformed or absent one restarts the trace in
// Begin, per the spec.
func TraceIngress(r *http.Request) (ctx context.Context, joined bool) {
	if tp := r.Header.Get("traceparent"); tp != "" { // the usual request has none: format no error for it
		if tc, err := obs.ParseTraceparent(tp); err == nil {
			return obs.ContextWithTrace(r.Context(), tc), true
		}
	}
	return r.Context(), false
}

// Call is one query between Begin and Finish.
type Call struct {
	// Ctx carries the deadline and, for a sampled query, the root span
	// the layers below open theirs under.
	Ctx context.Context
	// TraceID is the trace identity as 32 hex digits. Every query has
	// one — the flight recorder keys on it — sampled or not.
	TraceID string
	// Span is the root span; nil unless the query is sampled.
	Span *obs.Span
	// Egress is the root span's trace position, which a reply names in
	// its traceparent header so a calling service can stitch this subtree
	// into its own trace; not Valid for an unsampled query.
	Egress obs.TraceContext

	frame    *Frame
	trace    obs.TraceID
	cancel   context.CancelFunc
	start    time.Time
	vertices int
}

// Begin opens the frame around one decoded query q: the deadline
// (timeout clamped to MaxTimeout, DefaultTimeout when none is given), the
// trace identity (the one ctx carries, from TraceIngress or
// obs.ContextWithTrace, else a fresh head-sampled one) and, for a sampled
// query only — which is what keeps always-on tracing cheap — the root
// span, with attrs beside the query's vertex count. Every Begin is paired
// with exactly one Finish.
func (f *Frame) Begin(ctx context.Context, q *graph.Graph, timeout time.Duration, attrs ...obs.Attr) *Call {
	c := &Call{frame: f, start: time.Now(), vertices: q.NumVertices()}
	if timeout <= 0 {
		timeout = f.DefaultTimeout
	}
	if timeout > f.MaxTimeout {
		timeout = f.MaxTimeout
	}
	ctx, c.cancel = context.WithTimeout(ctx, timeout)

	tc, ok := obs.TraceFromContext(ctx)
	if !ok || tc.TraceID.IsZero() {
		tc = obs.NewTraceContext()
		tc.Sampled = tc.SampleHead(f.TraceSample)
	}
	c.trace, c.TraceID = tc.TraceID, tc.TraceID.String()
	if tc.Sampled && f.Tracer != nil {
		c.Span = f.Tracer.StartRemote(tc, f.Span,
			append([]obs.Attr{obs.Int("query_vertices", int64(c.vertices))}, attrs...)...)
		c.Egress = c.Span.Context()
		c.Egress.Sampled = true
		c.Ctx = obs.ContextWithSpan(ctx, c.Span)
	} else {
		// Keep the inner layers from opening remote spans off the raw
		// trace context of an unsampled request.
		c.Ctx = obs.DetachTrace(ctx)
	}
	return c
}

// Finish is the one tail of a served query. rec carries what the server
// knows (outcome, query hash, counts, phase times, resources); Finish
// adds what the frame knows, closes the root span, moves the finished
// tree out of the tracer into the record as it is — plus remote, span
// subtrees that arrived as bytes from other processes; nothing is decoded
// until /tracez is read — and hands the record to the flight recorder,
// telemetry, the audit log and the latency histogram, each once. It
// returns the query's finished spans, nil for an unsampled query.
func (c *Call) Finish(rec obs.QueryRecord, remote ...[]byte) *obs.Trace {
	f := c.frame
	total := time.Since(c.start)
	rec.TraceID = c.TraceID
	rec.Time = c.start
	rec.QueryVertices = c.vertices
	rec.TotalUS = total.Microseconds()
	rec.Sampled = c.Span != nil
	if c.Span != nil {
		c.Span.Annotate(obs.Int("outcome", int64(rec.Outcome)))
		c.Span.End()
		// Completed trees leave the tracer, so a long-running server's
		// span forest stays bounded by the ring.
		rec.Trace = f.Tracer.Detach(c.trace)
		for _, spans := range remote {
			rec.Trace.AddRemote(spans)
		}
	}
	f.flight.Record(rec)
	f.Telemetry.ObserveQuery(rec) // aggregates scalars; keeps nothing of rec
	if f.audit != nil {
		f.audit.mu.Lock()
		f.audit.enc.Encode(rec) // one line per query: the record's JSON has no spans
		f.audit.mu.Unlock()
	}
	f.latency.ObserveDuration(total)
	c.cancel()
	return rec.Trace
}
