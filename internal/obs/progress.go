package obs

import (
	"sync"
	"sync/atomic"
	"time"
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
// and per-pivot clusters in the distributed mode.
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
	// WorkerBusy is per-worker busy time (nil before a run begins).
	WorkerBusy []time.Duration `json:"worker_busy,omitempty"`
	// Final marks the last report of a run.
	Final bool `json:"final,omitempty"`
}

// ProgressFunc receives progress snapshots. It is called from a reporter
// goroutine (and once from the enumerating goroutine for the final
// report); calls are serialized, and all counts are monotonically
// non-decreasing across calls.
type ProgressFunc func(Progress)

// Work is a sample of what a run has done so far, read off the ledger its
// workers drain into (telemetry.Ledger.Work).
type Work struct {
	Embeddings  int64
	Cardinality int64 // summed cardinality bounds of the completed units
	// Per enumeration worker: busy time and scheduling units completed.
	WorkerBusy []time.Duration
	WorkerDone []int64
}

// Reporter periodically invokes a ProgressFunc. What is done — units,
// embeddings, cardinality, worker busy time — is sampled from the run's
// ledger on every tick; the reporter itself holds only what the ledger
// does not: the totals to be done and when the run began. All methods
// are safe from any goroutine and nil-safe.
type Reporter struct {
	fn       ProgressFunc
	interval time.Duration

	clustersTotal atomic.Int64
	cardTotal     atomic.Int64

	mu    sync.Mutex // guards work, start/stop state
	work  func() Work
	start time.Time
	open  int // Begins not yet matched by a Stop
	stop  chan struct{}
	done  chan struct{}

	emitMu sync.Mutex // serializes fn invocations (monotonicity)
}

// NewReporter builds a Reporter delivering to fn every interval
// (interval <= 0 means DefaultProgressInterval). With a nil fn nothing is
// delivered; Snapshot still samples.
func NewReporter(fn ProgressFunc, interval time.Duration) *Reporter {
	if interval <= 0 {
		interval = DefaultProgressInterval
	}
	return &Reporter{fn: fn, interval: interval}
}

// Begin starts periodic reporting on a run whose ledger work samples and
// which is about to enumerate clusters scheduling units totalling card
// cardinality. A reporter carried over several runs keeps its first
// start time and sums their totals; a Begin while one is open only adds
// to them, so a caller that brackets several runs with its own Begin and
// Stop gets one final report for all of them.
func (r *Reporter) Begin(work func() Work, clusters int, card int64) {
	if r == nil {
		return
	}
	r.clustersTotal.Add(int64(clusters))
	r.cardTotal.Add(card)
	r.mu.Lock()
	defer r.mu.Unlock()
	r.work = work
	if r.open++; r.open > 1 {
		return
	}
	if r.start.IsZero() {
		r.start = time.Now()
	}
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

// Stop closes one Begin. The last open one ends periodic reporting and
// fires one final (Final=true) report; a Stop with no Begin open does
// nothing.
func (r *Reporter) Stop() {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.open == 0 {
		r.mu.Unlock()
		return
	}
	if r.open--; r.open > 0 {
		r.mu.Unlock()
		return
	}
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
	work := r.work
	r.mu.Unlock()

	p := Progress{
		ClustersTotal:    r.clustersTotal.Load(),
		CardinalityTotal: r.cardTotal.Load(),
		Final:            final,
	}
	if work != nil {
		w := work()
		p.Embeddings, p.CardinalityDone, p.WorkerBusy = w.Embeddings, w.Cardinality, w.WorkerBusy
		for _, units := range w.WorkerDone {
			p.ClustersDone += units
		}
	}
	if !start.IsZero() {
		p.Elapsed = time.Since(start)
	}
	if p.Elapsed > 0 {
		p.EmbeddingsPerSec = float64(p.Embeddings) / p.Elapsed.Seconds()
	}
	p.ETA = eta(p)
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
