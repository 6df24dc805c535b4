package enum

import "sync/atomic"

// DepthStats aggregates per-matching-order-depth candidate lookups and
// outputs across enumeration workers — the observed selectivity funnel
// the cost-based planner's drift detector feeds on (internal/plan).
//
// It is one view of the searcher's drain (see Options): the depth step
// counts lookups and outputs into its per-depth scratch regardless, so
// attaching a DepthStats adds nothing to the steady-state step.
type DepthStats struct {
	lookups []atomic.Int64
	emitted []atomic.Int64
}

// NewDepthStats returns a sink for a query with the given number of
// matching-order positions.
func NewDepthStats(depths int) *DepthStats {
	return &DepthStats{
		lookups: make([]atomic.Int64, depths),
		emitted: make([]atomic.Int64, depths),
	}
}

// Depths returns the number of matching-order positions tracked.
func (d *DepthStats) Depths() int { return len(d.lookups) }

// Snapshot copies the per-depth counters: lookups[i] is how many
// CandidatesFor calls ran at order position i, emitted[i] how many
// candidates they produced in total (before injectivity and
// symmetry-breaking filters — the same accounting the cost model
// predicts).
func (d *DepthStats) Snapshot() (lookups, emitted []int64) {
	lookups = make([]int64, len(d.lookups))
	emitted = make([]int64, len(d.emitted))
	for i := range d.lookups {
		lookups[i] = d.lookups[i].Load()
		emitted[i] = d.emitted[i].Load()
	}
	return lookups, emitted
}
