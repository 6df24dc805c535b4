// Package prof is the EXPLAIN ANALYZE layer: a concurrency-safe
// Collector that the index builder (internal/ceci) feeds while executing
// a query with profiling enabled and that reads the enumeration's work
// back from the run's ledger, and an immutable Profile snapshot that
// exposes what the paper's evaluation measures but
// the code never surfaced — per-query-vertex filter funnels (label /
// degree / NLC forward pass, reverse-BFS refinement, cascade deletion;
// Algorithms 1–2), TE/NTE entry counts and bytes, per-NTE set-
// intersection comparisons versus output size (Section 4.1, Lemma 2),
// the cluster-cardinality distribution that drives ST/CGD/FGD balancing
// (Section 4.3, Algorithm 3), and per-worker busy/idle time.
//
// A nil *Collector turns every method into a no-op, and every hot-path
// call site guards with a single nil check, so profiling disabled costs
// one predictable branch.
package prof

import (
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/obs"
	"ceci/internal/telemetry"
)

// Collector accumulates one profiled execution. Create with New, attach
// to the build and enumeration options, then Snapshot after the run.
// All recording methods are safe for concurrent use from any number of
// build or enumeration workers.
type Collector struct {
	initialized atomic.Bool

	mu       sync.Mutex
	vertices []VertexCounters

	// The enumeration's per-vertex step counts, kernel mix and worker
	// table are not collected here: Snapshot reads them from the ledger
	// the run drained into, positions mapped to query vertices by order.
	ledger *telemetry.Ledger
	order  []int

	strategy   string
	pivotCards []int64
	unitCards  []int64
	enumWallNS atomic.Int64

	unitSeconds *obs.Histogram
	clusterCard *obs.Histogram
	enumOutput  *obs.Histogram
}

// New returns an empty collector with the default histogram buckets.
func New() *Collector {
	return &Collector{
		unitSeconds: obs.NewHistogram(obs.LatencyBuckets()),
		clusterCard: obs.NewHistogram(obs.SizeBuckets()),
		enumOutput:  obs.NewHistogram(obs.SizeBuckets()),
	}
}

// VertexCounters holds one query vertex's live build counters. Fields
// are atomics so build workers (which partition the frontier) can update
// without locks.
type VertexCounters struct {
	// Forward BFS filter funnel (Algorithm 1): every data-graph
	// neighbor scanned while expanding frontiers toward this vertex,
	// and how many each filter stage dropped.
	NeighborsScanned atomic.Int64
	DroppedLabel     atomic.Int64
	DroppedDegree    atomic.Int64
	DroppedNLC       atomic.Int64

	// Backward pruning: refined counts the candidates deleted because
	// reverse-BFS refinement proved their cardinality zero (Algorithm
	// 2); removed counts every candidate deletion of this vertex, so
	// cascade deletions = removed - refined.
	refined atomic.Int64
	removed atomic.Int64

	// Index shape, recorded when a build completes: the last build's
	// (a limited Match builds a prefix, then the complete index).
	FinalCands   atomic.Int64
	TEEntries    atomic.Int64
	TECandidates atomic.Int64
	// FlatBytes is the physical footprint of the vertex's index
	// structures — keys, offsets, arena, candidate and cardinality
	// columns — as opposed to TEBytes' idealized Table-2 accounting.
	FlatBytes atomic.Int64
	nte       []NTECounters
}

// NTECounters profiles one incoming non-tree edge of a query vertex.
type NTECounters struct {
	Parent int // query vertex the non-tree edge arrives from

	// Build-time cost of filling this NTE_Candidates structure: the
	// summed lengths of the intersected adjacency/candidate lists
	// versus what survived.
	BuildComparisons atomic.Int64
	BuildOutput      atomic.Int64

	Entries    atomic.Int64
	Candidates atomic.Int64
}

// InitQuery sizes the per-vertex state for a query of n vertices whose
// non-tree-edge parents are given by nteParents (indexed by query
// vertex). Idempotent: only the first call takes effect, so a limited
// Match's prefix and complete builds can both pass the same tree.
func (c *Collector) InitQuery(n int, nteParents func(u int) []int) {
	if c == nil || c.initialized.Load() {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.initialized.Load() {
		return
	}
	c.vertices = make([]VertexCounters, n)
	for u := 0; u < n; u++ {
		parents := nteParents(u)
		c.vertices[u].nte = make([]NTECounters, len(parents))
		for j, p := range parents {
			c.vertices[u].nte[j].Parent = p
		}
	}
	c.initialized.Store(true)
}

// Vertex returns query vertex u's counters. Callers must have observed
// a completed InitQuery (the builder calls it before spawning workers)
// and must guard the collector itself against nil.
func (c *Collector) Vertex(u int) *VertexCounters { return &c.vertices[u] }

// NTE returns the counters of v's j-th incoming non-tree edge.
func (v *VertexCounters) NTE(j int) *NTECounters { return &v.nte[j] }

// AddRefined counts candidates of this vertex deleted by refinement.
func (v *VertexCounters) AddRefined(n int64) { v.refined.Add(n) }

// AddRemoved counts any candidate deletion of this vertex (refinement,
// cascade, or dead-frontier removal).
func (v *VertexCounters) AddRemoved(n int64) { v.removed.Add(n) }

// RecordClusters registers the scheduling outcome of one enumeration:
// the per-pivot refined cardinalities and the per-unit cardinalities
// after (possible) ExtremeCluster decomposition. Accumulates across
// calls so the distributed mode can record per machine.
func (c *Collector) RecordClusters(strategy string, pivotCards, unitCards []int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.strategy = strategy
	c.pivotCards = append(c.pivotCards, pivotCards...)
	c.unitCards = append(c.unitCards, unitCards...)
	c.mu.Unlock()
	for _, card := range pivotCards {
		c.clusterCard.ObserveInt(card)
	}
}

// ReadEnumeration names the ledger an enumeration is about to drain into
// and the matching order (query vertex per position) it runs under:
// Snapshot reads its enumeration tables from there.
func (c *Collector) ReadEnumeration(l *telemetry.Ledger, order []int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.ledger, c.order = l, order
	c.mu.Unlock()
}

// ObserveUnit feeds the unit wall-time histogram with one completed work
// unit.
func (c *Collector) ObserveUnit(d time.Duration) {
	if c == nil {
		return
	}
	c.unitSeconds.ObserveDuration(d)
}

// ObserveEnumOutput feeds the candidate-list-size histogram with one
// intersection result size.
func (c *Collector) ObserveEnumOutput(n int) {
	if c == nil {
		return
	}
	c.enumOutput.ObserveInt(int64(n))
}

// AddEnumWall records the enumeration's wall-clock time (the basis of
// the per-worker idle computation). Accumulates across phases.
func (c *Collector) AddEnumWall(d time.Duration) {
	if c == nil {
		return
	}
	c.enumWallNS.Add(int64(d))
}
