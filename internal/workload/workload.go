// Package workload implements the paper's workload distribution schemes
// (Sections 4.2–4.3): static distribution (ST), coarse-grained dynamic
// pull-based distribution (CGD), and fine-grained dynamic distribution
// (FGD) with cardinality-driven ExtremeCluster decomposition
// (Algorithm 3).
package workload

import (
	"cmp"
	"fmt"
	"slices"
	"sync/atomic"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/graph"
)

// Strategy selects a distribution scheme.
type Strategy int

const (
	// ST assigns an equal number of embedding clusters to each worker up
	// front, with no re-adjustment.
	ST Strategy = iota
	// CGD lets idle workers pull whole clusters from a shared pool.
	CGD
	// FGD additionally decomposes ExtremeClusters — clusters whose
	// cardinality exceeds β × expected-per-worker — into sub-clusters
	// before pulling, and sorts the pool by descending cardinality so
	// large units start first.
	FGD
)

func (s Strategy) String() string {
	switch s {
	case ST:
		return "ST"
	case CGD:
		return "CGD"
	case FGD:
		return "FGD"
	default:
		return fmt.Sprintf("strategy(%d)", int(s))
	}
}

// DefaultBeta is the paper's workload-balancing default (§6.3 fixes
// β = 0.2 for the Figure 11 experiments).
const DefaultBeta = 0.2

// Unit is a schedulable piece of the search space: a consistent prefix of
// the matching order plus its estimated workload. Pos[i] is the position,
// in the candidates of query vertex Order[i], of the data vertex matched
// to it — what the index is read by; Cands recovers the vertex. A depth-1
// unit is a whole embedding cluster.
type Unit struct {
	Pos  []uint32
	Card int64
}

// Pivot returns the data vertex the unit matches to the root: its cluster.
func (u Unit) Pivot(ix *ceci.Index) graph.VertexID {
	return ix.Nodes[ix.Tree.Root].Cands[u.Pos[0]]
}

// Clusters returns one depth-1 unit per pivot, in pivot order. All
// prefixes share one backing array — one allocation instead of one per
// pivot keeps scheduling off the enumeration allocation budget.
func Clusters(ix *ceci.Index) []Unit {
	units := make([]Unit, len(ix.Pivots()))
	positions := make([]uint32, len(units))
	for i := range units {
		positions[i] = ix.PivotPos(i)
		units[i] = Unit{Pos: positions[i : i+1 : i+1], Card: ix.ClusterCardinality(i)}
	}
	return units
}

// Decompose implements Algorithm 3: every unit whose workload exceeds
// β × (total/workers) is recursively split along the matching order into
// per-matching-node sub-units. Injectivity and symmetry-breaking
// constraints are honored during splitting so the resulting units
// partition exactly the search space the enumerator would explore.
//
// Each split performs the candidate lookup its sub-units then skip, on
// scratch[depth] — pass the per-depth scratch of the worker that should
// account for that work, or nil when nobody is counting.
//
// No unit whose prefix already holds maxPrefix vertices is split; pass
// ix.Tree.NumVertices() to split down to whole embeddings. An enumerator
// that finishes the depths past a shorter prefix in one step (enum
// counting the last two vertices as a product) passes that prefix's
// length, or it would run that step once per sub-unit instead of once
// per prefix.
func Decompose(ix *ceci.Index, cons *auto.Constraints, beta float64, workers, maxPrefix int, scratch []ceci.MatchScratch) []Unit {
	units := Clusters(ix)
	if workers <= 1 {
		return units
	}
	if beta <= 0 {
		beta = DefaultBeta
	}
	var total int64
	for _, u := range units {
		total += u.Card
	}
	if total <= 0 {
		return units
	}
	threshold := beta * float64(total) / float64(workers)
	if threshold < 1 {
		threshold = 1
	}

	n := ix.Tree.NumVertices()
	if scratch == nil {
		scratch = make([]ceci.MatchScratch, n)
	}
	d := decomposer{
		ix:        ix,
		cons:      cons,
		threshold: threshold,
		maxPrefix: maxPrefix,
		scratch:   scratch,
		m:         make([]graph.VertexID, n),
		pos:       make([]uint32, n),
		matched:   make([]bool, n),
	}
	out := make([]Unit, 0, len(units))
	for _, u := range units {
		out = d.split(out, u, float64(u.Card))
	}
	// Largest units first smooths worker finishing times (§4.3).
	slices.SortFunc(out, func(a, b Unit) int { return cmp.Compare(b.Card, a.Card) })
	return out
}

type decomposer struct {
	ix        *ceci.Index
	cons      *auto.Constraints
	threshold float64
	maxPrefix int // no prefix this long is split
	m         []graph.VertexID
	pos       []uint32
	matched   []bool
	scratch   []ceci.MatchScratch // per matching-order depth

	// positions is the arena backing every emitted sub-unit's Pos: one
	// growing allocation instead of one slice per unit. Growth may
	// reallocate the backing array; already-carved prefixes keep pointing
	// into the old one, which stays valid because prefixes are write-once.
	positions []uint32
	// cands is the per-depth candidate scratch: split recurses with
	// depth+1, so each depth owns its slot and capacity is reused across
	// the whole decomposition.
	cands [][]cardCand
}

type cardCand struct {
	p uint32
	c int64
}

// carve appends unit's prefix extended by position p to the arena and
// returns the unit of the carved, capacity-clamped view.
func (d *decomposer) carve(unit Unit, p uint32, card int64) Unit {
	start := len(d.positions)
	d.positions = append(append(d.positions, unit.Pos...), p)
	end := len(d.positions)
	return Unit{Pos: d.positions[start:end:end], Card: card}
}

// split appends to out either the unit itself (small enough or as long
// as a prefix may get), with work as its Card, or its recursively
// decomposed sub-units — none when the prefix has no consistent extension.
func (d *decomposer) split(out []Unit, unit Unit, work float64) []Unit {
	tree := d.ix.Tree
	depth := len(unit.Pos)
	if work <= d.threshold || depth >= d.maxPrefix {
		unit.Card = int64(work + 0.5)
		return append(out, unit)
	}

	// Install the prefix into the scratch embedding. Recursive calls
	// work on superset prefixes and clear their flags on return, so the
	// caller re-installs after each recursion (see below).
	d.install(unit)
	defer func() {
		for i := range unit.Pos {
			d.matched[tree.Order[i]] = false
		}
	}()

	uNext := tree.Order[depth]
	matching := d.ix.CandidatesFor(uNext, d.pos, &d.scratch[depth])

	// Filter to assignments the enumerator would actually make, and
	// collect their cardinalities for proportional workload split. The
	// candidate buffer is per-depth scratch: recursion below uses depth+1.
	for len(d.cands) <= depth {
		d.cands = append(d.cands, nil)
	}
	cands := d.cands[depth][:0]
	node := &d.ix.Nodes[uNext]
	var total int64
	for _, p := range matching {
		v := node.Cands[p]
		if d.used(depth, v) {
			continue
		}
		if d.cons != nil && !d.cons.Allows(uNext, v, d.m, d.matched) {
			continue
		}
		c := node.CardAt(p)
		if c <= 0 {
			c = 1 // refinement disabled or stale: keep a floor
		}
		cands = append(cands, cardCand{p, c})
		total += c
	}
	d.cands[depth] = cands
	// A dead end (no candidate survives) emits nothing: the lookup that
	// proved it is already counted above, and a unit for it would make
	// whichever worker draws it repeat that lookup.
	for _, c := range cands {
		myWork := work * float64(c.c) / float64(total)
		sub := d.carve(unit, c.p, int64(myWork+0.5))
		if myWork > d.threshold {
			out = d.split(out, sub, myWork)
			// The recursion cleared the matched flags of its (superset)
			// prefix; restore ours for the remaining loop iterations.
			d.install(unit)
		} else {
			out = append(out, sub)
		}
	}
	return out
}

func (d *decomposer) install(unit Unit) {
	tree := d.ix.Tree
	for i, p := range unit.Pos {
		u := tree.Order[i]
		d.m[u], d.pos[u] = d.ix.Nodes[u].Cands[p], p
		d.matched[u] = true
	}
}

func (d *decomposer) used(depth int, v graph.VertexID) bool {
	for _, u := range d.ix.Tree.Order[:depth] {
		if d.m[u] == v {
			return true
		}
	}
	return false
}

// Pool is a shared work pool workers pull from (the classical pull-based
// dynamic model the paper cites). Safe for concurrent Next calls.
type Pool struct {
	units  []Unit
	cursor atomic.Int64
}

// NewPool wraps units in a pool.
func NewPool(units []Unit) *Pool { return &Pool{units: units} }

// Next returns the next unit, or false when the pool is drained.
func (p *Pool) Next() (Unit, bool) {
	i := p.cursor.Add(1) - 1
	if i >= int64(len(p.units)) {
		return Unit{}, false
	}
	return p.units[i], true
}

// Len returns the total number of units.
func (p *Pool) Len() int { return len(p.units) }

// Partition splits units into k static groups round-robin (ST). Workers
// own their group exclusively.
func Partition(units []Unit, k int) [][]Unit {
	if k < 1 {
		k = 1
	}
	groups := make([][]Unit, k)
	for i, u := range units {
		groups[i%k] = append(groups[i%k], u)
	}
	return groups
}
