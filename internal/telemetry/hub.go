package telemetry

import (
	"encoding/json"
	"slices"
	"sync"
	"time"

	"ceci/internal/obs"
)

// Options configures a Hub. The zero value works: real clock, default
// resolutions, 10s sampling, default SLO.
type Options struct {
	// Now is the injected clock (time.Now when nil). Every component —
	// store buckets, SLO ring — reads it, so tests drive the whole hub
	// with a fake clock.
	Now func() time.Time
	// Resolutions are the store's rollup levels (DefaultResolutions
	// when empty).
	Resolutions []Resolution
	// SampleInterval is how often Start's background sampler runs
	// (default 10s, matching the finest default resolution).
	SampleInterval time.Duration
	// SLO sets the tracked objectives.
	SLO SLOConfig
}

// Hub is the process's telemetry brain: it owns the time-series store,
// the SLO tracker and the running ledger totals, samples the obs
// registry and the Go runtime into the store, and renders everything at
// /statz (JSON and text).
type Hub struct {
	now      func() time.Time
	store    *Store
	slo      *SLO
	interval time.Duration

	mu         sync.Mutex
	reg        *obs.Registry
	histTracks map[string]*histTrack
	// queries, errors and totals sum every observed query; they never
	// decrease.
	queries, errors int64
	totals          obs.QueryResources

	startOnce sync.Once
	stopOnce  sync.Once
	stop      chan struct{}
	done      chan struct{}
}

// histTrack derives rate and quantile series from one cumulative
// histogram: prev is the snapshot at the previous sample, and the
// quantiles are computed over the delta window so they reflect recent
// behavior, not the process's whole life.
type histTrack struct {
	prev obs.HistogramSnapshot
	// precomputed series names, so the steady-state sample pass does no
	// string concatenation
	nCount, nP50, nP99 string
}

// NewHub returns a hub. Call BindRegistry to attach the obs registry,
// Start to begin background sampling (or Sample directly under test).
func NewHub(o Options) *Hub {
	if o.Now == nil {
		o.Now = time.Now
	}
	if o.SampleInterval <= 0 {
		o.SampleInterval = 10 * time.Second
	}
	return &Hub{
		now:        o.Now,
		store:      NewStore(o.Now, o.Resolutions),
		slo:        NewSLO(o.SLO, o.Now),
		interval:   o.SampleInterval,
		histTracks: make(map[string]*histTrack),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
}

// Store exposes the time-series store (e.g. for service gauges that are
// cheaper to push than to sample).
func (h *Hub) Store() *Store {
	if h == nil {
		return nil
	}
	return h.store
}

// SLO exposes the objective tracker.
func (h *Hub) SLO() *SLO {
	if h == nil {
		return nil
	}
	return h.slo
}

// BindRegistry attaches the obs registry: its gauge sources and
// histograms are sampled into the store on every Sample pass, and the
// hub registers an "slo" gauge source back into the registry so burn
// state shows up in /metrics and /metrics.json.
func (h *Hub) BindRegistry(reg *obs.Registry) {
	if h == nil || reg == nil {
		return
	}
	h.mu.Lock()
	h.reg = reg
	h.mu.Unlock()
	reg.SetSource("slo", func() map[string]int64 {
		st := h.slo.State()
		breach := func(b bool) int64 {
			if b {
				return 1
			}
			return 0
		}
		return map[string]int64{
			"latency_fast_burn_milli":        int64(st.Latency.FastBurn * 1000),
			"latency_slow_burn_milli":        int64(st.Latency.SlowBurn * 1000),
			"latency_breach":                 breach(st.Latency.Breach),
			"availability_fast_burn_milli":   int64(st.Availability.FastBurn * 1000),
			"availability_slow_burn_milli":   int64(st.Availability.SlowBurn * 1000),
			"availability_breach":            breach(st.Availability.Breach),
			"error_budget_remaining_milli":   int64(st.Availability.BudgetRemaining * 1000),
			"latency_budget_remaining_milli": int64(st.Latency.BudgetRemaining * 1000),
		}
	})
}

// ObserveQuery folds one completed query into the SLO tracker and the
// running totals. The service calls it once per query, after recording
// the flight record. Allocation-free once the totals have seen each
// kernel. Nil-safe.
func (h *Hub) ObserveQuery(rec obs.QueryRecord) {
	if h == nil {
		return
	}
	h.slo.Observe(time.Duration(rec.TotalUS)*time.Microsecond, rec.Outcome)
	h.mu.Lock()
	h.queries++
	if rec.Outcome != 200 {
		h.errors++
	}
	h.totals.Add(rec.Resources)
	h.mu.Unlock()
}

// totalsSnapshot returns the running totals, the kernel mix copied out
// of the lock.
func (h *Hub) totalsSnapshot() (queries, errors int64, res obs.QueryResources) {
	h.mu.Lock()
	defer h.mu.Unlock()
	res = h.totals
	res.Kernels = slices.Clone(res.Kernels)
	return h.queries, h.errors, res
}

// Sample runs one sampling pass: Go runtime gauges, registry gauge
// sources and histograms, ledger totals, and SLO burn gauges all land in
// the store. Start calls it on a ticker; tests and the CI smoke call it
// directly.
func (h *Hub) Sample() {
	if h == nil {
		return
	}
	// Go runtime: the gauges only; its two distributions are exported by
	// /metrics and not stored.
	for k, v := range obs.RuntimeGauges() {
		h.store.Observe("runtime_"+k, float64(v))
	}

	// Registry gauge sources and histograms.
	h.mu.Lock()
	reg := h.reg
	h.mu.Unlock()
	if reg != nil {
		for src, vals := range reg.GaugeSources() {
			for k, v := range vals {
				h.store.Observe(src+"_"+k, float64(v))
			}
		}
		for name, hist := range reg.Histograms() {
			h.trackHistogram(name, hist.Snapshot())
		}
	}

	// Ledger totals over every observed query.
	queries, errors, res := h.totalsSnapshot()
	h.store.Observe("ledger_queries", float64(queries))
	h.store.Observe("ledger_errors", float64(errors))
	h.store.Observe("ledger_cpu_seconds", float64(res.CPUUS)/1e6)
	h.store.Observe("ledger_units", float64(res.Units))
	h.store.Observe("ledger_recursive_calls", float64(res.RecursiveCalls))
	h.store.Observe("ledger_embeddings", float64(res.Embeddings))
	h.store.Observe("ledger_peak_scratch_bytes", float64(res.PeakScratchBytes))

	// SLO burn state.
	st := h.slo.State()
	h.store.Observe("slo_latency_fast_burn", st.Latency.FastBurn)
	h.store.Observe("slo_latency_slow_burn", st.Latency.SlowBurn)
	h.store.Observe("slo_availability_fast_burn", st.Availability.FastBurn)
	h.store.Observe("slo_availability_slow_burn", st.Availability.SlowBurn)
	h.store.Observe("slo_availability_budget_remaining", st.Availability.BudgetRemaining)
}

// trackHistogram folds one cumulative histogram snapshot into derived
// series: _count (cumulative), and _p50/_p99 over the delta since the
// previous sample (skipped when the window saw no observations).
func (h *Hub) trackHistogram(name string, s obs.HistogramSnapshot) {
	h.mu.Lock()
	tr := h.histTracks[name]
	if tr == nil {
		tr = &histTrack{
			nCount: name + "_count",
			nP50:   name + "_p50",
			nP99:   name + "_p99",
		}
		h.histTracks[name] = tr
	}
	prev := tr.prev
	tr.prev = s
	h.mu.Unlock()

	h.store.Observe(tr.nCount, float64(s.Count))
	delta := deltaSnapshot(s, prev)
	if delta.Count <= 0 {
		return
	}
	h.store.Observe(tr.nP50, Quantile(delta, 0.50))
	h.store.Observe(tr.nP99, Quantile(delta, 0.99))
}

// deltaSnapshot returns cur - prev bucket-wise when the bucket layouts
// match; otherwise (the first sample) it falls back to cur.
func deltaSnapshot(cur, prev obs.HistogramSnapshot) obs.HistogramSnapshot {
	if prev.Count == 0 || len(prev.Bounds) != len(cur.Bounds) || len(prev.Counts) != len(cur.Counts) {
		return cur
	}
	for i := range prev.Bounds {
		if prev.Bounds[i] != cur.Bounds[i] {
			return cur
		}
	}
	d := obs.HistogramSnapshot{
		Bounds: cur.Bounds,
		Counts: make([]int64, len(cur.Counts)),
		Count:  cur.Count - prev.Count,
		Sum:    cur.Sum - prev.Sum,
	}
	for i := range cur.Counts {
		d.Counts[i] = cur.Counts[i] - prev.Counts[i]
	}
	return d
}

// Start launches the background sampler at the configured interval.
// Idempotent; Stop shuts it down.
func (h *Hub) Start() {
	if h == nil {
		return
	}
	h.startOnce.Do(func() {
		go func() {
			defer close(h.done)
			t := time.NewTicker(h.interval)
			defer t.Stop()
			for {
				select {
				case <-t.C:
					h.Sample()
				case <-h.stop:
					return
				}
			}
		}()
	})
}

// Stop terminates the background sampler (if started) and waits for it.
func (h *Hub) Stop() {
	if h == nil {
		return
	}
	h.stopOnce.Do(func() { close(h.stop) })
	h.startOnce.Do(func() { close(h.done) }) // never started: unblock done
	<-h.done
}

// Statz is the /statz document.
type Statz struct {
	Time           time.Time                 `json:"time"`
	SampleInterval float64                   `json:"sample_interval_seconds"`
	SLO            SLOState                  `json:"slo"`
	Queries        int64                     `json:"queries"`
	Errors         int64                     `json:"errors"`
	Totals         obs.QueryResources        `json:"totals"`
	Series         map[string][]SeriesWindow `json:"series"`
}

// Snapshot assembles the full /statz document.
func (h *Hub) Snapshot() Statz {
	if h == nil {
		return Statz{}
	}
	queries, errors, res := h.totalsSnapshot()
	return Statz{
		Time:           h.now(),
		SampleInterval: h.interval.Seconds(),
		SLO:            h.slo.State(),
		Queries:        queries,
		Errors:         errors,
		Totals:         res,
		Series:         h.store.Snapshot(),
	}
}

// StatzJSON renders the /statz document as indented JSON.
func (h *Hub) StatzJSON() ([]byte, error) {
	return json.MarshalIndent(h.Snapshot(), "", "  ")
}
