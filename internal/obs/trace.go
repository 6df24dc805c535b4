// Package obs is the live observability layer: a hierarchical span
// tracer (preprocess → build → refine → enumerate → cluster), a progress
// reporter invoked at a fixed interval during enumeration, the flight
// recorder of finished queries, and a metrics registry whose handler
// serves its counters and histograms as JSON and Prometheus text
// alongside net/http/pprof.
//
// Everything here is nil-safe: a nil *Tracer, *Span, *Reporter, or
// *Registry turns every method into a no-op, so instrumentation can be
// threaded through hot paths without branching at each call site.
package obs

import (
	"encoding/binary"
	"strconv"
	"sync"
	"time"
)

// Attr is one span attribute: a key and a string or integer value. An
// integer stays an integer until a snapshot or an encoder reads it — the
// enumeration attaches four to every work unit's span, and most spans
// are never read.
type Attr struct {
	Key   string
	str   string
	num   int64
	isNum bool
}

// String builds a string-valued attribute.
func String(key, value string) Attr { return Attr{Key: key, str: value} }

// Int builds an integer-valued attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, num: v, isNum: true} }

// Value returns the attribute's value as text.
func (a Attr) Value() string {
	if a.isNum {
		return strconv.FormatInt(a.num, 10)
	}
	return a.str
}

// DefaultMaxChildren bounds the spans recorded under one parent. Spans
// beyond the cap are counted (SpanNode.Dropped) but not retained, so a
// million-cluster enumeration cannot exhaust memory through its trace.
const DefaultMaxChildren = 512

// TracerOptions configures a Tracer.
type TracerOptions struct {
	// MaxChildren caps recorded children per span (0 = DefaultMaxChildren).
	MaxChildren int
	// OnStart, when non-nil, is called with the name of every recorded
	// span as it opens, under the tracer's lock: a span opened on another
	// goroutine waits until it returns, and it must not call the tracer.
	OnStart func(name string)
}

// Tracer records a tree of timed spans. Safe for concurrent use; span
// creation from multiple workers interleaves under one lock, so it is
// meant for phase/cluster granularity, not per-embedding events.
//
// Every span carries a W3C trace-context identity: root spans opened
// with Start belong to the tracer's own trace (one random 128-bit trace
// ID minted at NewTracer), roots opened with StartRemote join the trace
// of a propagated TraceContext, and span IDs are allocated
// deterministically from (trace ID, tracer salt, sequence number).
type Tracer struct {
	mu    sync.Mutex
	opts  TracerOptions
	tc    TraceContext // default trace identity for Start roots
	roots []*Span
	drops int
	seq   int64
	salt  int64 // tracer identity mixed into span IDs (see below)
	epoch time.Time
}

// NewTracer returns a Tracer recording from now.
//
// The tracer's random identity (its own trace ID) doubles as a span-ID
// salt: span IDs derive from (trace ID, salt ^ seq), so two tracers in
// different processes serving the SAME distributed trace — a router and
// its shards — never mint colliding span IDs, which would corrupt
// stitched trees.
func NewTracer(opts TracerOptions) *Tracer {
	if opts.MaxChildren <= 0 {
		opts.MaxChildren = DefaultMaxChildren
	}
	t := &Tracer{opts: opts, tc: NewTraceContext(), epoch: time.Now()}
	t.salt = int64(binary.BigEndian.Uint64(t.tc.TraceID[:8]))
	return t
}

// TraceID returns the tracer's own trace identity — the trace that
// plain Start roots belong to.
func (t *Tracer) TraceID() TraceID {
	if t == nil {
		return TraceID{}
	}
	return t.tc.TraceID
}

// Span is one timed node of the trace tree. Create with Tracer.Start,
// Tracer.StartRemote, or Span.Child; call End exactly once (extra Ends
// are ignored).
type Span struct {
	tracer   *Tracer
	name     string
	tc       TraceContext // this span's own (trace ID, span ID) identity
	parentSp SpanID       // parent span ID (zero on trace roots)
	attrs    []Attr
	start    time.Time
	end      time.Time
	ended    bool
	detached bool // beyond the parent's child cap: timed but not recorded
	children []*Span
	dropped  int
}

// Start opens a top-level span in the tracer's own trace.
func (t *Tracer) Start(name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	return t.startRoot(t.tc.TraceID, t.tc.SpanID, name, attrs)
}

// StartRemote opens a top-level span that continues a propagated trace:
// the span joins tc's trace and records tc.SpanID as its parent, so a
// caller on another machine (or the HTTP client that sent the
// traceparent header) owns the span this subtree stitches under.
// An invalid tc falls back to Start.
func (t *Tracer) StartRemote(tc TraceContext, name string, attrs ...Attr) *Span {
	if t == nil {
		return nil
	}
	if !tc.TraceID.IsZero() {
		return t.startRoot(tc.TraceID, tc.SpanID, name, attrs)
	}
	return t.Start(name, attrs...)
}

func (t *Tracer) startRoot(tid TraceID, parent SpanID, name string, attrs []Attr) *Span {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.roots) >= t.opts.MaxChildren {
		t.drops++
		t.seq++
		return &Span{
			tracer: t, detached: true, start: time.Now(),
			tc:       TraceContext{TraceID: tid, SpanID: deriveSpanID(tid, t.salt^t.seq), Sampled: true},
			parentSp: parent,
		}
	}
	s := t.newSpanLocked(name, tid, parent, attrs)
	t.roots = append(t.roots, s)
	return s
}

// Child opens a span nested under s.
func (s *Span) Child(name string, attrs ...Attr) *Span {
	if s == nil {
		return nil
	}
	t := s.tracer
	t.mu.Lock()
	defer t.mu.Unlock()
	if s.detached || len(s.children) >= t.opts.MaxChildren {
		s.dropped++
		t.seq++
		return &Span{
			tracer: t, detached: true, start: time.Now(),
			tc:       TraceContext{TraceID: s.tc.TraceID, SpanID: deriveSpanID(s.tc.TraceID, t.salt^t.seq), Sampled: true},
			parentSp: s.tc.SpanID,
		}
	}
	c := t.newSpanLocked(name, s.tc.TraceID, s.tc.SpanID, attrs)
	s.children = append(s.children, c)
	return c
}

// Context returns the span's trace position for propagation: children
// opened downstream — in-process or across a wire — should parent under
// this span. Safe on nil (returns the zero, invalid context).
func (s *Span) Context() TraceContext {
	if s == nil {
		return TraceContext{}
	}
	return s.tc
}

func (t *Tracer) newSpanLocked(name string, tid TraceID, parentSp SpanID, attrs []Attr) *Span {
	t.seq++
	s := &Span{
		tracer: t, name: name, attrs: attrs, start: time.Now(),
		tc:       TraceContext{TraceID: tid, SpanID: deriveSpanID(tid, t.salt^t.seq), Sampled: true},
		parentSp: parentSp,
	}
	if t.opts.OnStart != nil {
		t.opts.OnStart(name)
	}
	return s
}

// End closes the span. Idempotent; safe on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tracer
	t.mu.Lock()
	if !s.ended {
		s.ended = true
		s.end = time.Now()
	}
	t.mu.Unlock()
}

// Annotate appends attributes to an already-open span.
func (s *Span) Annotate(attrs ...Attr) {
	if s == nil || s.detached {
		return
	}
	s.tracer.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.tracer.mu.Unlock()
}

func attrMap(attrs []Attr) map[string]string {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]string, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value()
	}
	return m
}

// SpanNode is an immutable snapshot of one span, JSON-marshalable for
// the telemetry endpoint, the flight recorder, and the trace exporters.
type SpanNode struct {
	Name string `json:"name"`
	// TraceID/SpanID/ParentSpanID are the span's W3C trace-context
	// identity as lowercase hex. ParentSpanID is empty on trace roots;
	// on a remote-parented root (StartRemote) it names a span owned by
	// another tracer, which is how Stitch reconnects distributed trees.
	TraceID      string            `json:"trace_id,omitempty"`
	SpanID       string            `json:"span_id,omitempty"`
	ParentSpanID string            `json:"parent_span_id,omitempty"`
	Attrs        map[string]string `json:"attrs,omitempty"`
	StartUS      int64             `json:"start_us"`
	DurUS        int64             `json:"dur_us"`
	Running      bool              `json:"running,omitempty"`
	// Dropped counts children beyond the MaxChildren cap.
	Dropped  int         `json:"dropped_children,omitempty"`
	Children []*SpanNode `json:"children,omitempty"`
}

// Tree snapshots the current span forest. Open spans report their
// duration so far and Running=true.
func (t *Tracer) Tree() []*SpanNode {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	out := make([]*SpanNode, len(t.roots))
	for i, s := range t.roots {
		out[i] = s.snapshotLocked(t, now)
	}
	return out
}

func (s *Span) snapshotLocked(t *Tracer, now time.Time) *SpanNode {
	n := &SpanNode{
		Name:    s.name,
		Attrs:   attrMap(s.attrs),
		StartUS: s.start.Sub(t.epoch).Microseconds(),
		Dropped: s.dropped,
	}
	if !s.tc.TraceID.IsZero() {
		n.TraceID = s.tc.TraceID.String()
		n.SpanID = s.tc.SpanID.String()
		if !s.parentSp.IsZero() {
			n.ParentSpanID = s.parentSp.String()
		}
	}
	if s.ended {
		n.DurUS = s.end.Sub(s.start).Microseconds()
	} else {
		n.DurUS = now.Sub(s.start).Microseconds()
		n.Running = true
	}
	for _, c := range s.children {
		n.Children = append(n.Children, c.snapshotLocked(t, now))
	}
	return n
}

// Stitch reconnects a forest of span trees by trace-context identity:
// any top-level tree whose root names a ParentSpanID that exists
// elsewhere in the forest is moved under that parent. This is how
// spans that crossed a process or machine boundary — remote roots
// opened from a propagated traceparent — rejoin the request's tree.
// Trees whose parent is not present (the parent lives in another
// process whose spans were not gathered here) stay top-level.
func Stitch(nodes []*SpanNode) []*SpanNode {
	if len(nodes) <= 1 {
		return nodes
	}
	byID := make(map[string]*SpanNode)
	var index func(n *SpanNode)
	index = func(n *SpanNode) {
		if n.SpanID != "" {
			byID[n.SpanID] = n
		}
		for _, c := range n.Children {
			index(c)
		}
	}
	for _, n := range nodes {
		index(n)
	}
	var out []*SpanNode
	for _, n := range nodes {
		if n.ParentSpanID != "" {
			if parent, ok := byID[n.ParentSpanID]; ok && parent != n {
				parent.Children = append(parent.Children, n)
				continue
			}
		}
		out = append(out, n)
	}
	return out
}

// PhaseDurations aggregates span durations by name across the whole
// forest: the flat per-phase view (Figures 15 and 20), derived from the
// richer hierarchy.
//
// Semantics (locked in by TestPhaseDurationsSemantics):
//
//   - every recorded span contributes its full duration to the entry of
//     its name; repeated same-name spans (a limited match's two builds,
//     per-cluster children) sum deterministically, including nested same-name spans
//     — the map is a flat by-name total, not a tree rollup;
//   - still-open spans contribute their elapsed-so-far, measured at one
//     instant captured once for the entire aggregation, so concurrent
//     open spans are mutually consistent;
//   - durations keep full time.Time resolution (no microsecond
//     truncation — earlier versions derived this map from Tree(), whose
//     µs-granular snapshot made repeated aggregations of the same
//     closed trace disagree below 1µs);
//   - detached spans (beyond the MaxChildren cap) are excluded, exactly
//     as they are from Tree().
func (t *Tracer) PhaseDurations() map[string]time.Duration {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	now := time.Now()
	out := make(map[string]time.Duration)
	var walk func(s *Span)
	walk = func(s *Span) {
		if s.ended {
			out[s.name] += s.end.Sub(s.start)
		} else {
			out[s.name] += now.Sub(s.start)
		}
		for _, c := range s.children {
			walk(c)
		}
	}
	for _, r := range t.roots {
		walk(r)
	}
	return out
}
