package obs

import (
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/stats"
)

// DefaultProgressInterval is how often a Reporter fires when no interval
// is configured.
const DefaultProgressInterval = time.Second

// Progress is one live snapshot of an enumeration, delivered to a
// ProgressFunc at a fixed interval and once more (Final=true) when the
// enumeration ends.
//
// "Clusters" are the enumeration's scheduling units: whole embedding
// clusters under ST/CGD, cardinality-decomposed sub-clusters under FGD,
// and per-pivot clusters in the incremental and distributed modes.
type Progress struct {
	// Elapsed is wall time since the run began.
	Elapsed time.Duration `json:"elapsed"`
	// ClustersDone / ClustersTotal count completed scheduling units.
	ClustersDone  int64 `json:"clusters_done"`
	ClustersTotal int64 `json:"clusters_total"`
	// Embeddings found so far, and the run-average rate.
	Embeddings       int64   `json:"embeddings"`
	EmbeddingsPerSec float64 `json:"embeddings_per_sec"`
	// CardinalityDone / CardinalityTotal track the refined cluster
	// cardinalities (upper bounds the index computed for free), the
	// basis of the ETA estimate.
	CardinalityDone  int64 `json:"cardinality_done"`
	CardinalityTotal int64 `json:"cardinality_total"`
	// ETA extrapolates remaining time from completed cardinality (or,
	// lacking cardinalities, completed clusters); 0 when unknown.
	ETA time.Duration `json:"eta"`
	// WorkerBusy is per-worker busy time (nil when no clock is attached).
	WorkerBusy []time.Duration `json:"worker_busy,omitempty"`
	// Final marks the last report of a run.
	Final bool `json:"final,omitempty"`
}

// ProgressFunc receives progress snapshots. It is called from a reporter
// goroutine (and once from the enumerating goroutine for the final
// report); calls are serialized, and all counts are monotonically
// non-decreasing across calls.
type ProgressFunc func(Progress)

// Reporter aggregates live enumeration counters and periodically invokes
// a ProgressFunc. All Add* methods are cheap atomics, safe from any
// goroutine, and nil-safe.
type Reporter struct {
	fn       ProgressFunc
	interval time.Duration

	clustersDone  atomic.Int64
	clustersTotal atomic.Int64
	embeddings    atomic.Int64
	cardDone      atomic.Int64
	cardTotal     atomic.Int64

	mu      sync.Mutex // guards clock, start/stop state
	clock   *stats.WorkerClock
	start   time.Time
	running bool
	stop    chan struct{}
	done    chan struct{}

	emitMu sync.Mutex // serializes fn invocations (monotonicity)
}

// NewReporter builds a Reporter delivering to fn every interval
// (interval <= 0 means DefaultProgressInterval). fn may be nil, in which
// case the reporter only aggregates (useful for the telemetry endpoint).
func NewReporter(fn ProgressFunc, interval time.Duration) *Reporter {
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	return &Reporter{fn: fn, interval: interval}
}

// SetClock attaches a per-worker busy-time clock whose readings are
// included in every snapshot.
func (r *Reporter) SetClock(c *stats.WorkerClock) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.clock = c
	r.mu.Unlock()
}

// AddBusy charges d of busy time to worker i on the attached clock (a
// no-op without one).
func (r *Reporter) AddBusy(i int, d time.Duration) {
	if r == nil {
		return
	}
	r.mu.Lock()
	clock := r.clock
	r.mu.Unlock()
	clock.Add(i, d)
}

// AddTotals registers clusters scheduling units totalling card
// cardinality about to be enumerated.
func (r *Reporter) AddTotals(clusters int, card int64) {
	if r == nil {
		return
	}
	r.clustersTotal.Add(int64(clusters))
	r.cardTotal.Add(card)
}

// ClusterDone records completion of one scheduling unit of the given
// cardinality.
func (r *Reporter) ClusterDone(card int64) {
	if r == nil {
		return
	}
	r.clustersDone.Add(1)
	if card > 0 {
		r.cardDone.Add(card)
	}
}

// AddEmbeddings records n embeddings found.
func (r *Reporter) AddEmbeddings(n int64) {
	if r != nil && n != 0 {
		r.embeddings.Add(n)
	}
}

// Start begins periodic reporting. Idempotent; the first call pins the
// run's start time.
func (r *Reporter) Start() {
	if r == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.running {
		return
	}
	if r.start.IsZero() {
		r.start = time.Now()
	}
	r.running = true
	r.stop = make(chan struct{})
	r.done = make(chan struct{})
	go r.loop(r.stop, r.done)
}

func (r *Reporter) loop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(r.interval)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			r.emit(false)
		case <-stop:
			return
		}
	}
}

// Stop ends periodic reporting and fires one final (Final=true) report.
// Idempotent.
func (r *Reporter) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if !r.running {
		r.mu.Unlock()
		return
	}
	r.running = false
	close(r.stop)
	done := r.done
	r.mu.Unlock()
	<-done
	r.emit(true)
}

func (r *Reporter) emit(final bool) {
	if r.fn == nil {
		return
	}
	r.emitMu.Lock()
	defer r.emitMu.Unlock()
	r.fn(r.Snapshot(final))
}

// Snapshot captures the current progress. Counter reads are serialized
// relative to emit-driven snapshots only when called via the reporter's
// own delivery; direct callers (the telemetry endpoint) get a possibly
// slightly stale but internally consistent-enough view.
func (r *Reporter) Snapshot(final bool) Progress {
	if r == nil {
		return Progress{}
	}
	r.mu.Lock()
	start := r.start
	clock := r.clock
	r.mu.Unlock()

	p := Progress{
		ClustersDone:     r.clustersDone.Load(),
		ClustersTotal:    r.clustersTotal.Load(),
		Embeddings:       r.embeddings.Load(),
		CardinalityDone:  r.cardDone.Load(),
		CardinalityTotal: r.cardTotal.Load(),
		Final:            final,
	}
	if !start.IsZero() {
		p.Elapsed = time.Since(start)
	}
	if p.Elapsed > 0 {
		p.EmbeddingsPerSec = float64(p.Embeddings) / p.Elapsed.Seconds()
	}
	p.ETA = eta(p)
	if clock != nil {
		p.WorkerBusy = clock.BusyTimes()
	}
	return p
}

// eta extrapolates remaining wall time: proportionally from completed
// cardinality when refined cardinalities are known, else from completed
// cluster counts.
func eta(p Progress) time.Duration {
	if p.Elapsed <= 0 {
		return 0
	}
	if p.CardinalityDone > 0 && p.CardinalityTotal > p.CardinalityDone {
		ratio := float64(p.CardinalityTotal-p.CardinalityDone) / float64(p.CardinalityDone)
		return time.Duration(float64(p.Elapsed) * ratio)
	}
	if p.ClustersDone > 0 && p.ClustersTotal > p.ClustersDone {
		ratio := float64(p.ClustersTotal-p.ClustersDone) / float64(p.ClustersDone)
		return time.Duration(float64(p.Elapsed) * ratio)
	}
	return 0
}
