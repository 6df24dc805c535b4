// Package telemetry is the observability hub above internal/obs: the
// per-query resource ledger, an in-process time-series store with
// fixed-ring rollups, per-class (canonical query hash) cost aggregation,
// and SLO error-budget burn-rate tracking. internal/obs owns the
// primitive types (Histogram, QueryRecord, QueryResources) and the
// scrape endpoints; this package owns everything that accumulates them
// over time and answers "what is this process doing, and which query
// shapes are expensive" at /statz.
package telemetry

import (
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/obs"
	"ceci/internal/setops"
)

// Ledger is the one record of a run's enumeration work. Workers count
// into plain integers they own and drain them here — at work-unit
// boundaries and every few thousand embeddings, never inside the
// zero-allocation depth step — and everything that reports enumeration
// work reads it back: Snapshot (the obs.QueryResources on flight records
// and responses), the EXPLAIN ANALYZE profile's per-vertex, kernel and
// worker tables (the per-vertex one through Positions), and the live
// Progress reports (Work). Nothing else keeps a copy, so those views
// cannot disagree.
//
// The per-position and per-worker tables are sized by Begin when a run
// starts. A ledger may be charged by several runs, one after another or
// at once; its totals are then theirs summed. All methods are nil-safe
// and safe for concurrent use.
type Ledger struct {
	calls       atomic.Int64
	embeddings  atomic.Int64
	cardDone    atomic.Int64
	peakScratch atomic.Int64
	allocBytes  atomic.Int64
	allocObjs   atomic.Int64

	mu     sync.Mutex // serializes Begin
	detail atomic.Pointer[ledgerDetail]
}

// ledgerDetail holds the tables Begin sizes. Slots are reached through
// pointers so a later, larger Begin extends the tables without moving a
// slot another run is adding to.
type ledgerDetail struct {
	positions []*positionSlot // by matching-order position
	workers   []*workerSlot
}

type positionSlot struct {
	lookups, intersections, comparisons, output, verifications atomic.Int64

	kernels [setops.NumKernels]struct{ calls, scanned, emitted atomic.Int64 }
}

type workerSlot struct {
	busyNS atomic.Int64
	units  atomic.Int64
}

// StepCounts is the enumeration-step work counted at one matching-order
// position (Section 4.1): candidate lookups, the intersections they ran,
// the summed lengths of the intersected lists (what a merge-based
// intersection would compare), the summed result sizes — before the
// injectivity and symmetry-breaking checks — and, in the
// edge-verification ablation, adjacency probes.
type StepCounts struct {
	Lookups       int64
	Intersections int64
	Comparisons   int64
	Output        int64
	Verifications int64
}

// PositionWork is a ledger's record of one matching-order position: the
// step counts and what each intersection kernel did there.
type PositionWork struct {
	StepCounts
	Kernels setops.KernelStats
}

// NewLedger returns an empty ledger.
func NewLedger() *Ledger { return &Ledger{} }

// Begin sizes the ledger for a run over positions matching-order
// positions by workers workers. Charges to a position or worker no Begin
// covered are dropped.
func (l *Ledger) Begin(positions, workers int) {
	if l == nil {
		return
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	var d ledgerDetail
	if cur := l.detail.Load(); cur != nil {
		if len(cur.positions) >= positions && len(cur.workers) >= workers {
			return
		}
		d = *cur
	}
	d.positions = extend(d.positions, positions)
	d.workers = extend(d.workers, workers)
	l.detail.Store(&d)
}

// extend returns slots grown to n entries in a new backing array, the
// added ones carved from one block.
func extend[T any](slots []*T, n int) []*T {
	if len(slots) >= n {
		return slots
	}
	block := make([]T, n-len(slots))
	out := append(make([]*T, 0, n), slots...)
	for i := range block {
		out = append(out, &block[i])
	}
	return out
}

// AddPosition charges the work one worker did at matching-order position
// pos since its previous drain.
func (l *Ledger) AddPosition(pos int, steps StepCounts, kernels *setops.KernelStats) {
	if l == nil {
		return
	}
	d := l.detail.Load()
	if d == nil || pos >= len(d.positions) {
		return
	}
	p := d.positions[pos]
	addNonZero(&p.lookups, steps.Lookups)
	addNonZero(&p.intersections, steps.Intersections)
	addNonZero(&p.comparisons, steps.Comparisons)
	addNonZero(&p.output, steps.Output)
	addNonZero(&p.verifications, steps.Verifications)
	for k := range p.kernels {
		if kernels.Calls[k] != 0 {
			p.kernels[k].calls.Add(kernels.Calls[k])
			p.kernels[k].scanned.Add(kernels.Scanned[k])
			p.kernels[k].emitted.Add(kernels.Emitted[k])
		}
	}
}

func addNonZero(a *atomic.Int64, n int64) {
	if n != 0 {
		a.Add(n)
	}
}

// AddWork charges the recursive calls made and embeddings delivered since
// the worker's previous drain.
func (l *Ledger) AddWork(calls, embeddings int64) {
	if l == nil {
		return
	}
	l.calls.Add(calls)
	l.embeddings.Add(embeddings)
}

// AddUnit charges one completed work unit to a worker: its wall time,
// the unit's cardinality bound (0 when unknown) and the worker's current
// scratch footprint, folded into the peak.
func (l *Ledger) AddUnit(worker int, busy time.Duration, card, scratchBytes int64) {
	if l == nil {
		return
	}
	if d := l.detail.Load(); d != nil && worker < len(d.workers) {
		d.workers[worker].busyNS.Add(int64(busy))
		d.workers[worker].units.Add(1)
	}
	if card > 0 {
		l.cardDone.Add(card)
	}
	for {
		cur := l.peakScratch.Load()
		if scratchBytes <= cur || l.peakScratch.CompareAndSwap(cur, scratchBytes) {
			return
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

// Positions returns the work recorded at each matching-order position.
func (l *Ledger) Positions() []PositionWork {
	if l == nil {
		return nil
	}
	d := l.detail.Load()
	if d == nil {
		return nil
	}
	out := make([]PositionWork, len(d.positions))
	for i, p := range d.positions {
		w := &out[i]
		w.Lookups = p.lookups.Load()
		w.Intersections = p.intersections.Load()
		w.Comparisons = p.comparisons.Load()
		w.Output = p.output.Load()
		w.Verifications = p.verifications.Load()
		for k := range p.kernels {
			w.Kernels.Calls[k] = p.kernels[k].calls.Load()
			w.Kernels.Scanned[k] = p.kernels[k].scanned.Load()
			w.Kernels.Emitted[k] = p.kernels[k].emitted.Load()
		}
	}
	return out
}

// Work samples what the run has done so far: the totals a live Progress
// report shows and the per-worker table of the profile.
func (l *Ledger) Work() obs.Work {
	if l == nil {
		return obs.Work{}
	}
	w := obs.Work{Embeddings: l.embeddings.Load(), Cardinality: l.cardDone.Load()}
	if d := l.detail.Load(); d != nil {
		for _, slot := range d.workers {
			w.WorkerBusy = append(w.WorkerBusy, time.Duration(slot.busyNS.Load()))
			w.WorkerDone = append(w.WorkerDone, slot.units.Load())
		}
	}
	return w
}

// Snapshot renders the ledger as an obs.QueryResources: CPU time and
// units summed over the workers, the kernel mix over the positions.
// Kernels that never fired are omitted.
func (l *Ledger) Snapshot() *obs.QueryResources {
	if l == nil {
		return nil
	}
	r := &obs.QueryResources{
		RecursiveCalls:   l.calls.Load(),
		Embeddings:       l.embeddings.Load(),
		PeakScratchBytes: l.peakScratch.Load(),
		AllocBytes:       l.allocBytes.Load(),
		AllocObjects:     l.allocObjs.Load(),
	}
	d := l.detail.Load()
	if d == nil {
		return r
	}
	var busyNS int64
	for _, w := range d.workers {
		busyNS += w.busyNS.Load()
		r.Units += w.units.Load()
	}
	r.CPUUS = busyNS / 1000
	var mix setops.KernelStats
	for _, p := range d.positions {
		for k := range p.kernels {
			mix.Calls[k] += p.kernels[k].calls.Load()
			mix.Scanned[k] += p.kernels[k].scanned.Load()
			mix.Emitted[k] += p.kernels[k].emitted.Load()
		}
	}
	for k, calls := range mix.Calls {
		if calls == 0 {
			continue
		}
		r.Kernels = append(r.Kernels, obs.KernelMix{
			Kernel:  setops.Kernel(k).String(),
			Calls:   calls,
			Scanned: mix.Scanned[k],
			Emitted: mix.Emitted[k],
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
