package enum

import (
	"time"

	"ceci/internal/workload"
)

// UnitCost records the measured cost of one work unit: the basis for the
// schedule simulation behind the paper's scalability figures. On hosts
// with fewer cores than the experiment's worker count (common when
// reproducing a 28-core/16-machine study on a laptop), wall-clock speedup
// curves are meaningless; instead, every unit is processed serially, its
// real duration recorded, and k-worker makespans are computed by
// simulating the ST/CGD/FGD schedules over those measured costs
// (workload.SimulateMakespan).
type UnitCost struct {
	Unit       workload.Unit
	Duration   time.Duration
	Embeddings int64
}

// MeasureUnits enumerates every unit of the matcher's strategy serially,
// returning per-unit measured costs. The total embedding count across
// units equals a full unlimited enumeration (Options.Limit is ignored:
// scalability experiments enumerate everything).
func (m *Matcher) MeasureUnits() []UnitCost {
	ctl := &control{} // count-only, no limit
	s := newSearcher(m, ctl)
	units := m.units(s)
	m.begin(1)
	costs := make([]UnitCost, len(units))
	for i, u := range units {
		before := ctl.counted.Load()
		start := time.Now()
		s.runUnit(u)
		busy := time.Since(start)
		s.drain(true, u.Card, busy)
		costs[i] = UnitCost{
			Unit:       u,
			Duration:   busy,
			Embeddings: ctl.counted.Load() - before,
		}
	}
	s.drain(false, 0, 0) // the per-depth counts, decomposition's included
	return costs
}
