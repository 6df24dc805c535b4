package enum

import (
	"time"

	"ceci/internal/graph"
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
	var found int64
	s := newSearcher(m, &control{fn: func([]graph.VertexID) bool {
		found++
		return true
	}})
	units := m.units(s.scratch)
	costs := make([]UnitCost, len(units))
	for i, u := range units {
		before := found
		start := time.Now()
		s.runUnit(u)
		costs[i] = UnitCost{
			Unit:       u,
			Duration:   time.Since(start),
			Embeddings: found - before,
		}
	}
	s.drain(false, 0, 0)
	return costs
}
