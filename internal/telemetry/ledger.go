// Package telemetry is the observability hub above internal/obs: the
// per-query resource ledger, an in-process time-series store with
// fixed-ring rollups, per-class (canonical query hash) cost aggregation,
// and SLO error-budget burn-rate tracking. internal/obs owns the
// primitive types (Histogram, QueryRecord, QueryResources) and the
// scrape endpoints; this package owns everything that accumulates them
// over time and answers "what is this process doing, and which query
// shapes are expensive" at /statz and /dashz.
package telemetry

import (
	"sync/atomic"
	"time"

	"ceci/internal/obs"
	"ceci/internal/setops"
)

// Ledger accumulates one query's resource consumption. Enumeration
// workers charge it from their drain — at work-unit boundaries and every
// few thousand embeddings, never inside the zero-allocation depth step —
// so a ledger adds a handful of atomic adds per drain, nothing per
// embedding. All methods are nil-safe and safe for concurrent use;
// Snapshot converts the counters into the obs.QueryResources form that
// rides the query's flight record.
type Ledger struct {
	cpuNS       atomic.Int64
	units       atomic.Int64
	calls       atomic.Int64
	embeddings  atomic.Int64
	peakScratch atomic.Int64
	allocBytes  atomic.Int64
	allocObjs   atomic.Int64

	kCalls   [setops.NumKernels]atomic.Int64
	kScanned [setops.NumKernels]atomic.Int64
	kEmitted [setops.NumKernels]atomic.Int64
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// AddUnit charges one completed work unit: the worker's busy time, the
// recursive calls and embeddings produced since the worker's previous
// charge, and the worker's current scratch footprint (folded into the
// peak via CAS-max).
func (l *Ledger) AddUnit(cpu time.Duration, calls, embeddings, scratchBytes int64) {
	if l == nil {
		return
	}
	l.cpuNS.Add(int64(cpu))
	l.units.Add(1)
	l.AddWork(calls, embeddings)
	l.maxScratch(scratchBytes)
}

// AddWork charges recursive calls and embeddings produced mid-unit,
// since the worker's previous charge.
func (l *Ledger) AddWork(calls, embeddings int64) {
	if l == nil {
		return
	}
	l.calls.Add(calls)
	l.embeddings.Add(embeddings)
}

// maxScratch folds b into the peak-scratch high-water mark.
func (l *Ledger) maxScratch(b int64) {
	for {
		cur := l.peakScratch.Load()
		if b <= cur || l.peakScratch.CompareAndSwap(cur, b) {
			return
		}
	}
}

// AddKernels charges the per-kernel work of one drain.
func (l *Ledger) AddKernels(d setops.KernelStats) {
	if l == nil {
		return
	}
	for k := 0; k < setops.NumKernels; k++ {
		if d.Calls[k] != 0 {
			l.kCalls[k].Add(d.Calls[k])
			l.kScanned[k].Add(d.Scanned[k])
			l.kEmitted[k].Add(d.Emitted[k])
		}
	}
}

// SetAllocDelta records the process heap-allocation delta attributed to
// this query (see AllocWatermark). Overwrites any previous value.
func (l *Ledger) SetAllocDelta(bytes, objects int64) {
	if l == nil {
		return
	}
	l.allocBytes.Store(bytes)
	l.allocObjs.Store(objects)
}

// Snapshot renders the ledger as an obs.QueryResources. Kernels that
// never fired are omitted.
func (l *Ledger) Snapshot() *obs.QueryResources {
	if l == nil {
		return nil
	}
	r := &obs.QueryResources{
		CPUUS:            l.cpuNS.Load() / 1000,
		Units:            l.units.Load(),
		RecursiveCalls:   l.calls.Load(),
		Embeddings:       l.embeddings.Load(),
		PeakScratchBytes: l.peakScratch.Load(),
		AllocBytes:       l.allocBytes.Load(),
		AllocObjects:     l.allocObjs.Load(),
	}
	for k := 0; k < setops.NumKernels; k++ {
		calls := l.kCalls[k].Load()
		if calls == 0 {
			continue
		}
		r.Kernels = append(r.Kernels, obs.KernelMix{
			Kernel:  setops.Kernel(k).String(),
			Calls:   calls,
			Scanned: l.kScanned[k].Load(),
			Emitted: l.kEmitted[k].Load(),
		})
	}
	return r
}

// AllocWatermark is a heap-allocation watermark pair: capture one before
// a query with StartAllocWatermark, call ChargeTo after, and the ledger
// receives the process-wide allocation delta. Under concurrent queries
// the attribution is approximate (neighbors' allocations are included);
// the steady-state enumeration step allocates nothing, so the delta
// predominantly reflects build-phase work.
type AllocWatermark struct {
	bytes, objects int64
}

// StartAllocWatermark captures the current cumulative allocation
// counters from runtime/metrics (two scalar reads, no stop-the-world).
func StartAllocWatermark() AllocWatermark {
	b, o := obs.RuntimeAllocs()
	return AllocWatermark{bytes: b, objects: o}
}

// ChargeTo stores the allocation delta since the watermark into l.
func (w AllocWatermark) ChargeTo(l *Ledger) {
	if l == nil {
		return
	}
	b, o := obs.RuntimeAllocs()
	l.SetAllocDelta(b-w.bytes, o-w.objects)
}
