package obs

import (
	"sync"
	"time"
)

// QueryRecord is one completed query as the flight recorder remembers
// it: identity (trace ID, canonical query hash), admission and phase
// timings, the outcome as an HTTP-style status, and — when the query
// was sampled — its spans, from which /tracez builds the stitched tree.
type QueryRecord struct {
	// Seq is the record's process-wide admission number, assigned by the
	// recorder; newer records have larger Seq.
	Seq uint64 `json:"seq"`
	// TraceID is the query's 128-bit trace ID as 32 hex digits.
	TraceID string `json:"trace_id"`
	// Time is when the query was admitted.
	Time time.Time `json:"time"`
	// QueryHash is a short hash of the canonical (isomorphism-aware)
	// query form — equal for isomorphic patterns. Empty when the query
	// was shed before its class was resolved.
	QueryHash string `json:"query_hash,omitempty"`
	// QueryVertices is the pattern size.
	QueryVertices int `json:"query_vertices"`
	// Outcome is the HTTP-style status: 200 OK, 400 bad query, 429 shed
	// by admission control, 499 client gone, 500 internal, 504 deadline.
	Outcome int `json:"outcome"`
	// CacheHit reports whether the index cache served the query's class.
	CacheHit bool `json:"cache_hit"`
	// Partial marks results cut short by deadline or cancellation.
	Partial bool `json:"partial,omitempty"`
	// Embeddings delivered (or counted).
	Embeddings int64 `json:"embeddings"`
	// AdmissionWaitUS is time spent queued for a worker slot.
	AdmissionWaitUS int64 `json:"admission_wait_us"`
	// BuildUS and EnumUS are the index-build and enumeration phases.
	BuildUS int64 `json:"build_us"`
	EnumUS  int64 `json:"enum_us"`
	// TotalUS is end-to-end latency including admission wait.
	TotalUS int64 `json:"total_us"`
	// Sampled reports whether spans were recorded for this query.
	Sampled bool `json:"sampled"`
	// Resources is the query's resource ledger (CPU, allocations, peak
	// scratch, kernel mix), present when the engine runs with telemetry
	// enabled. Unlike Trace it is small and survives in /queryz listings.
	Resources *QueryResources `json:"resources,omitempty"`
	// Trace holds the query's spans (sampled queries only), as recorded:
	// /tracez/{traceID} snapshots and stitches them when it is read. Never
	// part of the record's JSON, and dropped from the /queryz listings.
	Trace *Trace `json:"-"`
}

// FlightRecorder keeps the last N completed queries in a ring buffer
// plus a slowest-K side index, so "what just happened" and "what was
// slow today" both survive after the queries themselves are gone.
// Recording is one short critical section — a ring-slot write and an
// O(K) slowest-index update, no allocation beyond the record itself —
// so it sits on the request path of every query, sampled or not.
type FlightRecorder struct {
	mu      sync.Mutex
	ring    []QueryRecord
	next    int
	filled  int
	seq     uint64
	finds   uint64        // Find calls: a /tracez read each
	slowest []QueryRecord // sorted by TotalUS descending, ≤ k entries
	k       int
}

// DefaultFlightSize is the ring capacity when NewFlightRecorder is
// given a non-positive size.
const DefaultFlightSize = 256

// DefaultSlowestK is the slowest-query side-index depth when
// NewFlightRecorder is given a non-positive k.
const DefaultSlowestK = 16

// NewFlightRecorder returns a recorder holding the last size queries
// and the k slowest ever seen (both defaulted when non-positive).
func NewFlightRecorder(size, k int) *FlightRecorder {
	if size <= 0 {
		size = DefaultFlightSize
	}
	if k <= 0 {
		k = DefaultSlowestK
	}
	return &FlightRecorder{ring: make([]QueryRecord, size), k: k}
}

// Record stores one completed query, evicting the oldest ring entry
// when full and updating the slowest-K index. Safe for concurrent use.
// Nil-safe: a nil recorder drops the record.
func (f *FlightRecorder) Record(rec QueryRecord) {
	if f == nil {
		return
	}
	f.mu.Lock()
	f.seq++
	rec.Seq = f.seq
	f.ring[f.next] = rec
	f.next = (f.next + 1) % len(f.ring)
	if f.filled < len(f.ring) {
		f.filled++
	}
	// Slowest-K: insertion-sort into a tiny descending slice. Records
	// evicted from the ring stay here, so a pathological query from an
	// hour ago is still inspectable.
	if len(f.slowest) < f.k || rec.TotalUS > f.slowest[len(f.slowest)-1].TotalUS {
		i := len(f.slowest)
		if i < f.k {
			f.slowest = append(f.slowest, rec)
		} else {
			i = f.k - 1
			f.slowest[i] = rec
		}
		for i > 0 && f.slowest[i-1].TotalUS < f.slowest[i].TotalUS {
			f.slowest[i-1], f.slowest[i] = f.slowest[i], f.slowest[i-1]
			i--
		}
	}
	f.mu.Unlock()
}

// Total returns how many queries have ever been recorded (including
// those evicted from the ring).
func (f *FlightRecorder) Total() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.seq
}

// Finds returns how many times Find has been called: the /tracez reads
// served from this recorder (the trace_reads gauge). A shard of a fleet
// whose router is the only reader stays at zero — the router is handed
// the spans with each reply and never asks.
func (f *FlightRecorder) Finds() uint64 {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.finds
}

// Recent returns the retained queries, newest first, without their
// spans (use Find to get a record with them).
func (f *FlightRecorder) Recent() []QueryRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]QueryRecord, 0, f.filled)
	for i := 0; i < f.filled; i++ {
		rec := f.ring[(f.next-1-i+len(f.ring)*2)%len(f.ring)]
		rec.Trace = nil
		out = append(out, rec)
	}
	return out
}

// Slowest returns the K slowest queries ever recorded, slowest first,
// without their spans.
func (f *FlightRecorder) Slowest() []QueryRecord {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]QueryRecord, len(f.slowest))
	copy(out, f.slowest)
	for i := range out {
		out[i].Trace = nil
	}
	return out
}

// Find returns the record for a trace ID — spans included — searching
// the ring first, then the slowest-K index.
func (f *FlightRecorder) Find(traceID string) (QueryRecord, bool) {
	if f == nil {
		return QueryRecord{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	f.finds++
	for i := 0; i < f.filled; i++ {
		if rec := f.ring[(f.next-1-i+len(f.ring)*2)%len(f.ring)]; rec.TraceID == traceID {
			return rec, true
		}
	}
	for _, rec := range f.slowest {
		if rec.TraceID == traceID {
			return rec, true
		}
	}
	return QueryRecord{}, false
}
