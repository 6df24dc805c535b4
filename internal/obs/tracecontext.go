package obs

import (
	"context"
	crand "crypto/rand"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"sync/atomic"
)

// TraceID is a W3C trace-context 128-bit trace identifier. The zero
// value is invalid (the spec reserves all-zeros to mean "no trace").
type TraceID [16]byte

// String renders the ID as 32 lowercase hex digits.
func (t TraceID) String() string { return hex.EncodeToString(t[:]) }

// IsZero reports whether the ID is the invalid all-zeros value.
func (t TraceID) IsZero() bool { return t == TraceID{} }

// SpanID is a W3C trace-context 64-bit span identifier. The zero value
// is invalid and doubles as "no parent" on root spans.
type SpanID [8]byte

// String renders the ID as 16 lowercase hex digits.
func (s SpanID) String() string { return hex.EncodeToString(s[:]) }

// IsZero reports whether the ID is the invalid all-zeros value.
func (s SpanID) IsZero() bool { return s == SpanID{} }

// TraceContext identifies one position in a distributed trace: the
// trace every span of the request belongs to, the span the next child
// should be parented under, and the head-based sampling decision. It is
// the in-memory form of a W3C `traceparent` header and is what crosses
// process and machine boundaries (HTTP headers, the cluster TCP
// protocol) so remote spans stitch into one tree.
type TraceContext struct {
	TraceID TraceID
	SpanID  SpanID
	Sampled bool
}

// Valid reports whether both IDs are non-zero — the precondition for
// propagating the context downstream.
func (tc TraceContext) Valid() bool { return !tc.TraceID.IsZero() && !tc.SpanID.IsZero() }

// Traceparent formats the context as a W3C traceparent header value:
// version 00, 32-hex trace ID, 16-hex parent span ID, 2-hex flags.
func (tc TraceContext) Traceparent() string {
	flags := "00"
	if tc.Sampled {
		flags = "01"
	}
	return "00-" + tc.TraceID.String() + "-" + tc.SpanID.String() + "-" + flags
}

// ParseTraceparent parses a W3C traceparent header value. Malformed
// headers — wrong field lengths, non-hex digits, an all-zero trace or
// span ID, or the reserved version ff — are rejected with an error;
// per the spec, callers then restart the trace with a fresh context.
// Unknown (non-00) versions are accepted if the 00-version prefix
// parses, as the spec requires for forward compatibility.
func ParseTraceparent(s string) (TraceContext, error) {
	var tc TraceContext
	// 00-<32 hex>-<16 hex>-<2 hex> = 55 bytes; future versions may
	// append fields after the flags, separated by another dash.
	if len(s) < 55 {
		return tc, fmt.Errorf("traceparent: too short (%d bytes)", len(s))
	}
	if s[2] != '-' || s[35] != '-' || s[52] != '-' {
		return tc, fmt.Errorf("traceparent: bad field separators")
	}
	version := s[:2]
	if !isHex(version) {
		return tc, fmt.Errorf("traceparent: non-hex version %q", version)
	}
	if version == "ff" {
		return tc, fmt.Errorf("traceparent: reserved version ff")
	}
	if version == "00" {
		if len(s) != 55 {
			return tc, fmt.Errorf("traceparent: version 00 must be exactly 55 bytes, got %d", len(s))
		}
	} else if len(s) > 55 && s[55] != '-' {
		return tc, fmt.Errorf("traceparent: trailing bytes without separator")
	}
	if _, err := hex.Decode(tc.TraceID[:], []byte(s[3:35])); err != nil {
		return TraceContext{}, fmt.Errorf("traceparent: bad trace ID: %w", err)
	}
	if _, err := hex.Decode(tc.SpanID[:], []byte(s[36:52])); err != nil {
		return TraceContext{}, fmt.Errorf("traceparent: bad span ID: %w", err)
	}
	var flags [1]byte
	if _, err := hex.Decode(flags[:], []byte(s[53:55])); err != nil {
		return TraceContext{}, fmt.Errorf("traceparent: bad flags: %w", err)
	}
	if tc.TraceID.IsZero() {
		return TraceContext{}, fmt.Errorf("traceparent: all-zero trace ID")
	}
	if tc.SpanID.IsZero() {
		return TraceContext{}, fmt.Errorf("traceparent: all-zero span ID")
	}
	if isUpperHex(s[3:35]) || isUpperHex(s[36:52]) || isUpperHex(s[53:55]) {
		return TraceContext{}, fmt.Errorf("traceparent: uppercase hex is invalid")
	}
	tc.Sampled = flags[0]&0x01 != 0
	return tc, nil
}

func isHex(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !('0' <= c && c <= '9' || 'a' <= c && c <= 'f') {
			return false
		}
	}
	return true
}

func isUpperHex(s string) bool {
	for i := 0; i < len(s); i++ {
		if c := s[i]; 'A' <= c && c <= 'F' {
			return true
		}
	}
	return false
}

// traceSeed salts NewTraceContext so trace IDs stay unique even if the
// crypto reader ever fails; it never repeats within a process.
var traceSeed atomic.Uint64

// NewTraceContext mints a fresh root context: a random 128-bit trace
// ID, no parent span, sampled. This is the head of a new trace — pass
// it to Tracer.StartRemote (or carry it in a context.Context via
// ContextWithTrace) to open the root span.
func NewTraceContext() TraceContext {
	var tc TraceContext
	if _, err := crand.Read(tc.TraceID[:]); err != nil || tc.TraceID.IsZero() {
		// Entropy exhaustion is effectively impossible on the platforms
		// we run on, but an all-zero ID must never escape.
		n := traceSeed.Add(1)
		binary.BigEndian.PutUint64(tc.TraceID[8:], splitmix64(n))
		binary.BigEndian.PutUint64(tc.TraceID[:8], splitmix64(n^0x9e3779b97f4a7c15))
	}
	tc.Sampled = true
	return tc
}

// SampleHead makes the head-based sampling decision for a fresh trace
// from the trace ID's own randomness: the trace is sampled when its low
// 64 bits fall below rate·2⁶⁴. Deciding from the ID (not a separate
// coin flip) keeps the decision consistent anywhere the ID travels.
// rate ≥ 1 samples everything, rate ≤ 0 nothing.
func (tc TraceContext) SampleHead(rate float64) bool {
	if rate >= 1 {
		return true
	}
	if rate <= 0 {
		return false
	}
	v := binary.BigEndian.Uint64(tc.TraceID[8:])
	return float64(v) < rate*float64(^uint64(0))
}

// deriveSpanID allocates the seq-th span ID of a trace
// deterministically: a splitmix64 mix of the trace ID's low word and
// the tracer's span sequence number. Determinism (rather than fresh
// randomness per span) means a replayed run against the same trace ID
// produces the same span IDs, which keeps exported timelines diffable.
func deriveSpanID(tid TraceID, seq int64) SpanID {
	var s SpanID
	low := binary.BigEndian.Uint64(tid[8:])
	v := splitmix64(low ^ splitmix64(uint64(seq)))
	if v == 0 {
		v = 1 // all-zeros is the invalid span ID
	}
	binary.BigEndian.PutUint64(s[:], v)
	return s
}

// splitmix64 is the finalizer of the SplitMix64 generator — a cheap,
// well-distributed 64-bit mix.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

// Context plumbing: a trace context (the identity of the request) and a
// parent span (an open span to nest under) can both ride a
// context.Context through API layers that should not grow explicit
// tracing parameters.

type ctxKeySpan struct{}
type ctxKeyTrace struct{}

// ContextWithSpan returns a context carrying s as the ambient parent
// span. StartUnder (and through it the build, enumeration, and cluster
// layers) parents new phase spans beneath it.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, ctxKeySpan{}, s)
}

// SpanFromContext returns the ambient parent span, or nil.
func SpanFromContext(ctx context.Context) *Span {
	if ctx == nil {
		return nil
	}
	s, _ := ctx.Value(ctxKeySpan{}).(*Span)
	return s
}

// ContextWithTrace returns a context carrying tc as the ambient trace
// identity. An engine that accepts work with such a context opens its
// root span with StartRemote(tc, ...) so the local tree stitches under
// the caller's span.
func ContextWithTrace(ctx context.Context, tc TraceContext) context.Context {
	return context.WithValue(ctx, ctxKeyTrace{}, tc)
}

// TraceFromContext returns the ambient trace identity, if any.
func TraceFromContext(ctx context.Context) (TraceContext, bool) {
	if ctx == nil {
		return TraceContext{}, false
	}
	tc, ok := ctx.Value(ctxKeyTrace{}).(TraceContext)
	return tc, ok
}

// DetachTrace returns a context whose ambient span and trace identity
// are cleared, so StartUnder below it opens nothing but plain local
// roots. Used where the inner layers must not join the trace a context
// carries (e.g. a service request that was not sampled).
func DetachTrace(ctx context.Context) context.Context {
	ctx = context.WithValue(ctx, ctxKeySpan{}, (*Span)(nil))
	return context.WithValue(ctx, ctxKeyTrace{}, TraceContext{})
}

// StartUnder opens a span in the most tightly scoped trace position the
// context carries: a child of the ambient parent span when one is set,
// else a remote-parented root when the context carries a TraceContext,
// else a plain root span on t. This is how the build, enumeration, and
// cluster layers join a request's trace without threading tracing
// arguments through every signature — the context they already take is
// enough.
func StartUnder(ctx context.Context, t *Tracer, name string, attrs ...Attr) *Span {
	if parent := SpanFromContext(ctx); parent != nil {
		return parent.Child(name, attrs...)
	}
	if tc, ok := TraceFromContext(ctx); ok && tc.Valid() {
		return t.StartRemote(tc, name, attrs...)
	}
	return t.Start(name, attrs...)
}
