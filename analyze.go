package ceci

import (
	"encoding/json"
	"fmt"
	"time"

	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/prof"
)

// Profile is the structured per-query-vertex execution profile produced
// by ExplainAnalyze — the EXPLAIN ANALYZE counterpart to the static
// plan that Matcher.Explain prints.
type Profile = prof.Profile

// Report is the result of ExplainAnalyze: the static plan, the measured
// outcome, and the full execution profile. It marshals to JSON for
// machine consumption (cecirun -profile-json) and renders as text for
// terminals (Report.Text).
type Report struct {
	// Plan is the static Explain output for the prepared query.
	Plan string `json:"plan"`
	// Embeddings found (respecting Options.Limit).
	Embeddings int64 `json:"embeddings"`
	// BuildTime covers preprocessing and index construction; EnumTime
	// covers enumeration.
	BuildTime time.Duration `json:"build_ns"`
	EnumTime  time.Duration `json:"enum_ns"`
	// Index is the built CECI's size and shape accounting.
	Index IndexInfo `json:"index"`
	// Profile is the per-vertex / per-cluster / per-worker accounting.
	Profile Profile `json:"profile"`
}

// ExplainAnalyze executes the query with deep instrumentation enabled
// and returns what actually happened at every stage: the candidate
// funnel of each filter (label, degree, NLC, reverse-BFS refinement,
// cascade deletion), TE/NTE entry counts and bytes, per-NTE intersection
// comparisons versus output sizes, the embedding-cluster cardinality
// distribution with ExtremeCluster splits, and per-worker busy/idle
// time. opts may be nil; Options.Limit is honored (profile counters
// then cover only the work actually performed).
func ExplainAnalyze(data, query *Graph, opts *Options) (*Report, error) {
	o := opts.normalized()
	if o.Tracer == nil {
		// Phases come from the span tree; guarantee one exists.
		o.Tracer = obs.NewTracer(obs.TracerOptions{})
	}
	// The report reads the run's ledger (normalized sees to one): the
	// resources block, and under Planner the observed per-depth
	// selectivities it puts next to the estimate.
	o.profile = prof.New()

	buildStart := time.Now()
	m, err := Match(data, query, &o)
	if err != nil {
		return nil, err
	}
	buildTime := time.Since(buildStart)

	enumStart := time.Now()
	embeddings := m.Count()
	enumTime := time.Since(enumStart)

	// The report describes the complete index, as without a limit: a
	// matcher still holding a prefix builds the rest here, before the
	// snapshot, so the profile's index shape is that index's too.
	ix, err := m.index()
	if err != nil {
		return nil, err
	}
	tree := ix.Tree
	p := o.profile.Snapshot()
	decorateProfile(&p, tree)
	p.SetPhases(o.Tracer.PhaseDurations())
	p.Resources = o.Ledger.Snapshot()
	plannerProfile(&p, tree, m, &o)

	return &Report{
		Plan:       m.Explain(),
		Embeddings: embeddings,
		BuildTime:  buildTime,
		EnumTime:   enumTime,
		Index:      indexInfo(ix),
		Profile:    p,
	}, nil
}

// decorateProfile fills the query-shape fields the collector cannot
// know: matching-order position, tree parent, and vertex labels.
func decorateProfile(p *Profile, tree *order.QueryTree) {
	q := tree.Query
	for pos, u := range tree.Order {
		if int(u) >= len(p.Vertices) {
			continue
		}
		v := &p.Vertices[u]
		v.OrderPos = pos
		v.Parent = int(tree.Parent[u])
		for _, l := range q.Labels(u) {
			v.Labels = append(v.Labels, int(l))
		}
	}
}

// plannerProfile records how the matching order was chosen: the order
// itself and its source always, plus — when the cost-based planner ran —
// every candidate's estimate and the estimated-versus-observed per-depth
// funnel (recosted with the run's measured selectivities).
func plannerProfile(p *Profile, tree *order.QueryTree, m *Matcher, o *Options) {
	p.MatchingOrder = intOrder(tree.Order)
	dec := m.decision
	if dec == nil {
		p.Order = o.Order.String()
		return
	}
	p.Order = "auto:" + dec.Chosen
	pp := &prof.PlannerProfile{
		Chosen:   dec.Chosen,
		Order:    intOrder(dec.Order),
		Estimate: dec.Estimate,
	}
	for _, c := range dec.Candidates {
		pp.Candidates = append(pp.Candidates, prof.PlannerCandidate{
			Name:     c.Name,
			Order:    intOrder(c.Order),
			Estimate: c.Cost,
			Chosen:   c.Name == dec.Chosen,
		})
	}
	for _, d := range dec.PerDepth {
		pp.Depths = append(pp.Depths, prof.PlannerDepth{
			Vertex:   d.Vertex,
			EstCalls: d.Calls,
			EstOut:   d.Out,
		})
	}
	positions := o.Ledger.Positions()
	lookups, emitted := make([]int64, len(positions)), make([]int64, len(positions))
	for i, w := range positions {
		lookups[i], emitted[i] = w.Lookups, w.Output
		if i < len(pp.Depths) {
			pp.Depths[i].ObsCalls = w.Lookups
			if w.Lookups > 0 {
				pp.Depths[i].ObsOut = float64(w.Output) / float64(w.Lookups)
			}
		}
	}
	if calib := dec.Calibration(lookups, emitted); calib != nil {
		pp.Observed = m.planner.EstimateOrder(dec.Chosen, dec.Order, calib).Cost
	}
	p.Planner = pp
}

func intOrder(ord []VertexID) []int {
	out := make([]int, len(ord))
	for i, u := range ord {
		out[i] = int(u)
	}
	return out
}

// Text renders the report for a terminal: the static plan, the measured
// totals, then the execution profile tables.
func (r *Report) Text() string {
	return fmt.Sprintf("%s\nembeddings: %d\nbuild: %v  enumerate: %v\n\n%s",
		r.Plan, r.Embeddings, r.BuildTime.Round(time.Microsecond),
		r.EnumTime.Round(time.Microsecond), r.Profile.Text())
}

// JSON marshals the report with indentation, ready for -profile-json.
func (r *Report) JSON() ([]byte, error) {
	return json.MarshalIndent(r, "", "  ")
}
