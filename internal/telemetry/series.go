package telemetry

import (
	"math"
	"sync"
	"time"

	"ceci/internal/obs"
)

// Resolution is one rollup level of the time-series store: bucket width
// and ring length. A {10s, 360} resolution holds the last hour at 10s
// granularity in a fixed 360-slot ring.
type Resolution struct {
	Step time.Duration
	Len  int
}

// DefaultResolutions keeps one hour at 10s, six hours at 1m, and three
// days at 10m — about 9 KiB per series, fixed forever.
func DefaultResolutions() []Resolution {
	return []Resolution{
		{Step: 10 * time.Second, Len: 360},
		{Step: time.Minute, Len: 360},
		{Step: 10 * time.Minute, Len: 432},
	}
}

// Point is one rollup bucket: the bucket's start time (unix seconds) and
// the last value observed within it.
type Point struct {
	T int64   `json:"t"`
	V float64 `json:"v"`
}

// ring is one resolution's fixed buffer. Buckets take last-value
// semantics: the most recent observation within a bucket wins, which is
// the natural rollup for gauges and for cumulative counters (whose rate
// is the delta between consecutive points). Skipped buckets are NaN and
// dropped from snapshots.
type ring struct {
	stepSec int64
	buf     []float64
	last    int64 // absolute bucket index of the most recent write; -1 empty
	filled  int   // buckets ever written or skipped, capped at len(buf)
}

func newRing(r Resolution) ring {
	buf := make([]float64, r.Len)
	for i := range buf {
		buf[i] = math.NaN()
	}
	return ring{stepSec: int64(r.Step / time.Second), buf: buf, last: -1}
}

// write records v at unix-seconds t. Zero allocations.
func (r *ring) write(t int64, v float64) {
	b := t / r.stepSec
	if r.last < 0 {
		r.last = b
		r.filled = 1
	} else if b > r.last {
		// Advance, voiding any skipped buckets so stale values from a
		// previous lap never masquerade as fresh ones.
		gap := b - r.last
		if gap > int64(len(r.buf)) {
			gap = int64(len(r.buf))
		}
		for i := int64(1); i <= gap; i++ {
			r.buf[(r.last+i)%int64(len(r.buf))] = math.NaN()
		}
		r.last = b
		if r.filled += int(gap); r.filled > len(r.buf) {
			r.filled = len(r.buf)
		}
	} else if b < r.last {
		return // time went backwards; drop rather than corrupt the ring
	}
	r.buf[b%int64(len(r.buf))] = v
}

// points returns the retained buckets oldest-first, skipping voids.
func (r *ring) points() []Point {
	if r.last < 0 {
		return nil
	}
	out := make([]Point, 0, r.filled)
	for i := r.filled - 1; i >= 0; i-- {
		b := r.last - int64(i)
		v := r.buf[b%int64(len(r.buf))]
		if math.IsNaN(v) {
			continue
		}
		out = append(out, Point{T: b * r.stepSec, V: v})
	}
	return out
}

// Store is the in-process time-series store: named series, each held at
// every configured resolution in fixed rings. Observe is the write path
// — one map lookup plus one ring write per resolution, no allocation
// after a series' first observation — so samplers can run at high
// frequency without GC pressure. Snapshots are built on demand.
type Store struct {
	mu     sync.Mutex
	res    []Resolution
	now    func() time.Time
	series map[string]*seriesRings
}

type seriesRings struct {
	rings []ring
}

// NewStore returns a store over the given resolutions (DefaultResolutions
// when nil) with an injected clock (time.Now when nil).
func NewStore(now func() time.Time, res []Resolution) *Store {
	if now == nil {
		now = time.Now
	}
	if len(res) == 0 {
		res = DefaultResolutions()
	}
	return &Store{res: res, now: now, series: make(map[string]*seriesRings)}
}

// Observe records v for the named series at the current time, in every
// resolution. Creates the series on first use.
func (s *Store) Observe(name string, v float64) {
	t := s.now().Unix()
	s.mu.Lock()
	sr := s.series[name]
	if sr == nil {
		sr = &seriesRings{rings: make([]ring, len(s.res))}
		for i, r := range s.res {
			sr.rings[i] = newRing(r)
		}
		s.series[name] = sr
	}
	for i := range sr.rings {
		sr.rings[i].write(t, v)
	}
	s.mu.Unlock()
}

// SeriesWindow is one resolution of one series in a snapshot.
type SeriesWindow struct {
	StepSeconds int64   `json:"step_seconds"`
	Points      []Point `json:"points"`
}

// Snapshot returns every series at every resolution, keyed by series
// name, windows ordered finest-first.
func (s *Store) Snapshot() map[string][]SeriesWindow {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make(map[string][]SeriesWindow, len(s.series))
	for name, sr := range s.series {
		ws := make([]SeriesWindow, len(sr.rings))
		for i := range sr.rings {
			ws[i] = SeriesWindow{StepSeconds: sr.rings[i].stepSec, Points: sr.rings[i].points()}
		}
		out[name] = ws
	}
	return out
}

// Quantile estimates the q-quantile (0 < q < 1) of a histogram snapshot
// by linear interpolation within the containing bucket, Prometheus
// histogram_quantile style. The +Inf bucket clamps to the last finite
// bound. Returns NaN on an empty snapshot.
func Quantile(s obs.HistogramSnapshot, q float64) float64 {
	if s.Count == 0 || len(s.Counts) == 0 {
		return math.NaN()
	}
	rank := q * float64(s.Count)
	var cum int64
	for i, c := range s.Counts {
		cum += c
		if float64(cum) < rank {
			continue
		}
		if i >= len(s.Bounds) {
			// +Inf bucket: clamp to the largest finite bound.
			if len(s.Bounds) == 0 {
				return math.NaN()
			}
			return s.Bounds[len(s.Bounds)-1]
		}
		lo := 0.0
		if i > 0 {
			lo = s.Bounds[i-1]
		}
		hi := s.Bounds[i]
		if c == 0 {
			return hi
		}
		frac := (rank - float64(cum-c)) / float64(c)
		return lo + (hi-lo)*frac
	}
	if len(s.Bounds) == 0 {
		return math.NaN()
	}
	return s.Bounds[len(s.Bounds)-1]
}
