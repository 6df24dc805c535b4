package prof

import (
	"sort"
	"time"

	"ceci/internal/obs"
	"ceci/internal/setops"
)

// Profile is the immutable result of one profiled execution —
// marshalable to JSON for -profile-json and the BENCH files, renderable
// as text for -explain-analyze. Vertices are indexed by query vertex ID;
// presentation order (the matching order) is the caller's concern.
type Profile struct {
	Strategy string          `json:"strategy,omitempty"`
	Vertices []VertexProfile `json:"vertices"`
	Clusters ClusterProfile  `json:"clusters"`
	Workers  []WorkerProfile `json:"workers,omitempty"`
	Phases   []Phase         `json:"phases,omitempty"`

	// Order names how the matching order was chosen — a heuristic name
	// ("bfs", "least-frequent", ...) or "auto:<candidate>" under the
	// cost-based planner; MatchingOrder is the order itself, by query
	// vertex ID. Recorded so order changes are visible in regression
	// gates comparing profiles.
	Order         string `json:"order,omitempty"`
	MatchingOrder []int  `json:"matching_order,omitempty"`

	// Planner is the cost-based planner's decision record: the estimate
	// of every order considered, and — when the run carried per-depth
	// observed selectivities — the estimated-vs-observed comparison.
	// Present only when planning was enabled.
	Planner *PlannerProfile `json:"planner,omitempty"`

	Histograms map[string]obs.HistogramSnapshot `json:"histograms,omitempty"`

	// Resources is the run's resource-ledger snapshot (CPU time, work
	// units, peak scratch footprint, kernel mix), attached by
	// ExplainAnalyze when a ledger rode the run.
	Resources *obs.QueryResources `json:"resources,omitempty"`
}

// PlannerProfile records one cost-based planning pass. Estimates are
// deterministic functions of (data, query, options); the Obs* fields
// derive from the run's per-depth funnel and are deterministic for a
// complete (unlimited, uncancelled) enumeration.
type PlannerProfile struct {
	Chosen   string  `json:"chosen"`
	Order    []int   `json:"order"`
	Estimate float64 `json:"estimate"`
	// Observed is the model re-evaluated with this run's observed
	// per-depth selectivities folded in — how far off Estimate was (0
	// when no funnel rode the run).
	Observed   float64            `json:"observed,omitempty"`
	Candidates []PlannerCandidate `json:"candidates,omitempty"`
	Depths     []PlannerDepth     `json:"depths,omitempty"`
}

// PlannerCandidate is one order the planner scored.
type PlannerCandidate struct {
	Name     string  `json:"name"`
	Order    []int   `json:"order"`
	Estimate float64 `json:"estimate"`
	Chosen   bool    `json:"chosen,omitempty"`
}

// PlannerDepth compares the model's per-depth expectations with what
// the enumeration observed at that matching-order position.
type PlannerDepth struct {
	Vertex   int     `json:"vertex"`
	EstCalls float64 `json:"est_calls"`
	EstOut   float64 `json:"est_out"`
	ObsCalls int64   `json:"obs_calls"`
	// ObsOut is the observed mean output per lookup (0 when the depth
	// was never reached).
	ObsOut float64 `json:"obs_out"`
}

// VertexProfile is one query vertex's per-stage accounting. The
// candidate funnel reads top to bottom: NeighborsScanned edges entered
// the forward BFS pass, the Dropped* stages removed some, TECandidates
// candidate edges were indexed, refinement and cascading removed
// FinalCands' complement, FinalCands distinct candidates survived.
type VertexProfile struct {
	Vertex   int   `json:"vertex"`
	OrderPos int   `json:"order_pos"`
	Parent   int   `json:"parent"` // -1 for the root
	Labels   []int `json:"labels,omitempty"`

	NeighborsScanned int64 `json:"neighbors_scanned"`
	DroppedLabel     int64 `json:"dropped_label"`
	DroppedDegree    int64 `json:"dropped_degree"`
	DroppedNLC       int64 `json:"dropped_nlc"`
	DroppedRefine    int64 `json:"dropped_refine"`
	DroppedCascade   int64 `json:"dropped_cascade"`

	FinalCands   int64 `json:"final_candidates"`
	TEEntries    int64 `json:"te_entries"`
	TECandidates int64 `json:"te_candidates"`
	TEBytes      int64 `json:"te_bytes"`
	// FlatBytes is the measured physical footprint of the index
	// structures (keys + offsets + arena + candidate/cardinality
	// columns); TEBytes/Bytes above are the paper's idealized
	// 8-bytes-per-candidate-edge accounting.
	FlatBytes int64 `json:"flat_bytes,omitempty"`

	NTE []NTEProfile `json:"nte,omitempty"`

	Enum EnumProfile `json:"enum"`
}

// NTEProfile is the accounting of one incoming non-tree edge.
type NTEProfile struct {
	Parent           int   `json:"parent"`
	Entries          int64 `json:"entries"`
	Candidates       int64 `json:"candidates"`
	Bytes            int64 `json:"bytes"`
	BuildComparisons int64 `json:"build_comparisons"`
	BuildOutput      int64 `json:"build_output"`
}

// EnumProfile is the enumeration-time intersection cost at one vertex.
// Comparisons is the merge-equivalent cost (summed input lengths —
// comparable across kernel choices and to pre-kernel baselines); Scanned
// is what the chosen kernels actually examined, split per kernel under
// Kernels. All are deterministic functions of (data, query, options).
type EnumProfile struct {
	Lookups       int64           `json:"lookups"`
	Intersections int64           `json:"intersections"`
	Comparisons   int64           `json:"comparisons"`
	Scanned       int64           `json:"scanned,omitempty"`
	Output        int64           `json:"output"`
	Kernels       []KernelProfile `json:"kernels,omitempty"`
}

// KernelProfile is one adaptive intersection kernel's share of the
// enumeration work at one vertex. Kernels that never fired are omitted.
type KernelProfile struct {
	Kernel  string `json:"kernel"`
	Calls   int64  `json:"calls"`
	Scanned int64  `json:"scanned"`
	Emitted int64  `json:"emitted"`
}

// Dist summarizes a cardinality distribution.
type Dist struct {
	Count int     `json:"count"`
	Min   int64   `json:"min"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	Max   int64   `json:"max"`
	Total int64   `json:"total"`
	Skew  float64 `json:"skew"` // max / mean; 1.0 is perfectly uniform
}

// ClusterProfile captures the workload-balancing picture (Section 4.3):
// the raw embedding-cluster cardinalities and, under FGD, the unit
// distribution after ExtremeCluster decomposition.
type ClusterProfile struct {
	Pivots        Dist `json:"pivots"`
	Units         Dist `json:"units"`
	ExtremeSplits int  `json:"extreme_splits"` // units beyond the pivot count
}

// WorkerProfile is one worker's share of the enumeration.
type WorkerProfile struct {
	Worker int           `json:"worker"`
	Busy   time.Duration `json:"busy_ns"`
	Idle   time.Duration `json:"idle_ns"`
	Units  int64         `json:"units"`
}

// Phase is one named span total from the tracer.
type Phase struct {
	Name     string        `json:"name"`
	Duration time.Duration `json:"duration_ns"`
}

// Snapshot captures the collector's current state. Safe to call while
// workers are still recording (values may be mid-run), but intended for
// after the enumeration completes.
func (c *Collector) Snapshot() Profile {
	if c == nil {
		return Profile{}
	}
	c.mu.Lock()
	defer c.mu.Unlock()

	p := Profile{Strategy: c.strategy}
	p.Vertices = make([]VertexProfile, len(c.vertices))
	for u := range c.vertices {
		vc := &c.vertices[u]
		removed := vc.removed.Load()
		refined := vc.refined.Load()
		vp := VertexProfile{
			Vertex:           u,
			Parent:           -1,
			NeighborsScanned: vc.NeighborsScanned.Load(),
			DroppedLabel:     vc.DroppedLabel.Load(),
			DroppedDegree:    vc.DroppedDegree.Load(),
			DroppedNLC:       vc.DroppedNLC.Load(),
			DroppedRefine:    refined,
			DroppedCascade:   removed - refined,
			FinalCands:       vc.FinalCands.Load(),
			TEEntries:        vc.TEEntries.Load(),
			TECandidates:     vc.TECandidates.Load(),
			FlatBytes:        vc.FlatBytes.Load(),
		}
		vp.TEBytes = 8 * vp.TECandidates // the paper's Table 2 accounting
		for j := range vc.nte {
			nc := &vc.nte[j]
			np := NTEProfile{
				Parent:           nc.Parent,
				Entries:          nc.Entries.Load(),
				Candidates:       nc.Candidates.Load(),
				BuildComparisons: nc.BuildComparisons.Load(),
				BuildOutput:      nc.BuildOutput.Load(),
			}
			np.Bytes = 8 * np.Candidates
			vp.NTE = append(vp.NTE, np)
		}
		p.Vertices[u] = vp
	}
	for pos, w := range c.ledger.Positions() {
		if pos >= len(c.order) || c.order[pos] >= len(p.Vertices) {
			break // a ledger shared with a larger query
		}
		e := &p.Vertices[c.order[pos]].Enum
		e.Lookups, e.Intersections = w.Lookups, w.Intersections
		e.Comparisons, e.Output = w.Comparisons, w.Output
		for k, calls := range w.Kernels.Calls {
			if calls == 0 {
				continue
			}
			e.Scanned += w.Kernels.Scanned[k]
			e.Kernels = append(e.Kernels, KernelProfile{
				Kernel:  setops.Kernel(k).String(),
				Calls:   calls,
				Scanned: w.Kernels.Scanned[k],
				Emitted: w.Kernels.Emitted[k],
			})
		}
	}

	p.Clusters = ClusterProfile{
		Pivots: distOf(c.pivotCards),
		Units:  distOf(c.unitCards),
	}
	if n := len(c.unitCards) - len(c.pivotCards); n > 0 {
		p.Clusters.ExtremeSplits = n
	}

	wall := time.Duration(c.enumWallNS.Load())
	work := c.ledger.Work()
	for i, busy := range work.WorkerBusy {
		p.Workers = append(p.Workers, WorkerProfile{
			Worker: i,
			Busy:   busy,
			Idle:   max(wall-busy, 0),
			Units:  work.WorkerDone[i],
		})
	}

	p.Histograms = map[string]obs.HistogramSnapshot{
		"unit_seconds":        c.unitSeconds.Snapshot(),
		"cluster_cardinality": c.clusterCard.Snapshot(),
		"enum_candidates":     c.enumOutput.Snapshot(),
	}
	return p
}

// distOf summarizes cards (order-insensitive; the input is copied).
func distOf(cards []int64) Dist {
	d := Dist{Count: len(cards)}
	if len(cards) == 0 {
		return d
	}
	sorted := append([]int64(nil), cards...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })
	d.Min = sorted[0]
	d.Max = sorted[len(sorted)-1]
	d.P50 = sorted[quantileIdx(len(sorted), 0.50)]
	d.P95 = sorted[quantileIdx(len(sorted), 0.95)]
	for _, c := range sorted {
		d.Total += c
	}
	if mean := float64(d.Total) / float64(d.Count); mean > 0 {
		d.Skew = float64(d.Max) / mean
	}
	return d
}

func quantileIdx(n int, q float64) int {
	i := int(q * float64(n-1))
	if i >= n {
		i = n - 1
	}
	return i
}

// SetPhases fills the phase totals (typically from
// obs.Tracer.PhaseDurations), sorted by name for stable output.
func (p *Profile) SetPhases(d map[string]time.Duration) {
	p.Phases = p.Phases[:0]
	names := make([]string, 0, len(d))
	for n := range d {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		p.Phases = append(p.Phases, Phase{Name: n, Duration: d[n]})
	}
}

// Canonical returns a copy with every timing- and scheduling-dependent
// field zeroed: worker breakdowns (which worker ran which unit is a
// scheduling accident), phase durations, and the wall-time histogram.
// What remains — filter funnels, index shape, intersection counts,
// cluster distributions — is a pure function of (data, query, options),
// so two runs with the same seed must produce identical Canonical
// profiles even under maximum parallelism. The determinism test in
// internal/enum relies on exactly this split.
func (p Profile) Canonical() Profile {
	out := p
	out.Workers = nil
	out.Phases = nil
	out.Resources = nil // CPU time and scratch peaks are scheduling accidents
	out.Histograms = make(map[string]obs.HistogramSnapshot, len(p.Histograms))
	for name, h := range p.Histograms {
		if name == "unit_seconds" {
			continue // bucketed by wall time: inherently nondeterministic
		}
		out.Histograms[name] = h
	}
	return out
}

// FunnelTotals sums the filter funnel across vertices — the compact
// summary the BENCH files embed.
func (p Profile) FunnelTotals() map[string]int64 {
	out := map[string]int64{}
	for _, v := range p.Vertices {
		out["neighbors_scanned"] += v.NeighborsScanned
		out["dropped_label"] += v.DroppedLabel
		out["dropped_degree"] += v.DroppedDegree
		out["dropped_nlc"] += v.DroppedNLC
		out["dropped_refine"] += v.DroppedRefine
		out["dropped_cascade"] += v.DroppedCascade
		out["final_candidates"] += v.FinalCands
		out["index_flat_bytes"] += v.FlatBytes
		out["enum_comparisons"] += v.Enum.Comparisons
		out["enum_scanned"] += v.Enum.Scanned
		out["enum_output"] += v.Enum.Output
		for _, k := range v.Enum.Kernels {
			out["enum_kernel_"+k.Kernel+"_calls"] += k.Calls
			out["enum_kernel_"+k.Kernel+"_scanned"] += k.Scanned
		}
	}
	return out
}
