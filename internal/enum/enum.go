// Package enum implements CECI's parallel embedding enumeration
// (Section 4): intersection-based backtracking over embedding clusters,
// scheduled by the ST / CGD / FGD strategies of internal/workload, with
// optional first-k limits (the paper's "first 1,024 embeddings" mode)
// and an edge-verification ablation.
package enum

import (
	"context"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ceci/internal/auto"
	"ceci/internal/ceci"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
	"ceci/internal/workload"
)

// Options configures enumeration. Workers count into plain integers they
// own and drain them — at work-unit boundaries and every 4096 embeddings
// (searcher.drain) — into the run's Ledger and the cumulative Stats;
// Progress and Profile read the ledger.
type Options struct {
	// Workers bounds parallelism; <= 0 means GOMAXPROCS.
	Workers int
	// Limit stops after this many embeddings (0 = all). With multiple
	// workers the count is exact but which embeddings are returned is
	// nondeterministic, matching the paper's first-k experiments.
	Limit int64
	// Strategy selects workload distribution. The zero value is ST;
	// callers pass workload.FGD for the library default.
	Strategy workload.Strategy
	// Beta is the ExtremeCluster threshold factor (default 0.2).
	Beta float64
	// EdgeVerification enables the ablation of Section 4.1: non-tree
	// edges are checked by adjacency probes instead of intersection.
	EdgeVerification bool
	// DisableSymmetryBreaking lists every automorphic image (used by
	// correctness tests comparing raw counts).
	DisableSymmetryBreaking bool
	// Stats receives the enumeration's counters — recursive calls,
	// embeddings, intersections, edge verifications, units (may be nil).
	Stats *stats.Counters
	// Trace records enumerate/cluster spans (may be nil).
	Trace *obs.Tracer
	// Progress reports live cluster-completion and embedding counts
	// sampled from the ledger; the reporter is started when enumeration
	// begins and stopped (with a final report) when it ends (may be nil).
	Progress *obs.Reporter
	// Profile receives the EXPLAIN ANALYZE accounting that is not a sum
	// of drained work (cluster/unit cardinality distributions, the
	// candidate-list-size and unit-time histograms) and reads the rest
	// from the ledger (may be nil). Attach the same collector to the
	// build options to also capture the filter funnel and index shape.
	Profile *prof.Collector
	// Ledger is the record the run's work is drained into: per
	// matching-order position the step counts and intersection-kernel
	// mix, per worker busy time and units, and in total recursive calls,
	// embeddings, completed cardinality and peak scratch footprint. nil
	// means a private one.
	Ledger *telemetry.Ledger
}

// Matcher enumerates the embeddings represented by a CECI index.
type Matcher struct {
	ix   *ceci.Index
	cons *auto.Constraints
	// constrained[u] reports whether cons orders u against any other
	// query vertex; a depth whose vertex it does not skips cons.Allows.
	constrained []bool
	// elim is the matching-order position of the vertex z that a
	// count-only run does not loop over (searcher.eliminate), 0 when no
	// vertex qualifies (eliminable has the rule), and elimKeys are z's
	// key vertices, whose assignments the histogram is kept under.
	elim     int
	elimKeys []graph.VertexID
	// share[p*n+d] is canShare's answer for the vertices at matching-order
	// positions p and d, and shareFrom[d] is the shallowest position whose
	// vertex can share a data vertex with order[d]'s, d when none can: the
	// injectivity bitmap is read at depth d only when shareFrom[d] < d.
	share     []bool
	shareFrom []int
	opts      Options
}

// NewMatcher prepares enumeration over ix. Symmetry-breaking constraints
// are derived from the query unless disabled.
func NewMatcher(ix *ceci.Index, opts Options) *Matcher {
	if opts.Workers <= 0 {
		opts.Workers = runtime.GOMAXPROCS(0)
	}
	if opts.Beta <= 0 {
		opts.Beta = workload.DefaultBeta
	}
	if opts.Ledger == nil {
		opts.Ledger = telemetry.NewLedger()
	}
	tree := ix.Tree
	n := tree.NumVertices()
	m := &Matcher{ix: ix, opts: opts, constrained: make([]bool, n)}
	if !opts.DisableSymmetryBreaking {
		m.cons = auto.Compute(tree.Query)
		for u := range m.constrained {
			m.constrained[u] = len(m.cons.Less[u])+len(m.cons.Greater[u]) > 0
		}
	}
	// z is never the root, which every work unit's prefix holds: elim 0
	// means no vertex qualifies.
	if n >= 3 && !opts.EdgeVerification {
		m.elim, m.elimKeys = m.eliminable()
	}
	m.decideSharing(m.canShare)
	return m
}

// canShare is the rule for where injectivity is tested: can query vertex
// x hold the data vertex that a candidate of u proposes? Not when x is
// u's query neighbour: u's candidates come out of the adjacency list of
// x's data vertex, and a data graph has no self-loop. Nor when their
// labels cannot meet: where every data vertex has one label, a candidate
// carries its query vertex's primary label. On a multi-labelled data
// graph any two labels can meet. The edge-verification ablation probes
// non-tree edges only after the test, so there every pair can share.
func (m *Matcher) canShare(x, u graph.VertexID) bool {
	q := m.ix.Tree.Query
	switch {
	case m.opts.EdgeVerification:
		return true
	case q.HasEdge(x, u):
		return false
	}
	return m.ix.Data.MultiLabeled() || q.Label(x) == q.Label(u)
}

// decideSharing asks rule once for every pair of query vertices and fills
// share and shareFrom from the answers.
func (m *Matcher) decideSharing(rule func(x, u graph.VertexID) bool) {
	order := m.ix.Tree.Order
	n := len(order)
	m.share, m.shareFrom = make([]bool, n*n), make([]int, n)
	for d, u := range order {
		m.shareFrom[d] = d
		for p := d - 1; p >= 0; p-- {
			ok := rule(order[p], u)
			m.share[p*n+d], m.share[d*n+p] = ok, ok
			if ok {
				m.shareFrom[d] = p
			}
		}
	}
}

// shares reports whether the vertices at matching-order positions p and d
// can share a data vertex.
func (m *Matcher) shares(p, d int) bool { return m.share[p*len(m.shareFrom)+d] }

// eliminable applies the rule under which a count-only run counts the
// last vertex w from a histogram over w's candidates instead of looping
// over z, w's deepest key vertex (DESIGN §7.3): z is at position n-2, or
// at n-3, where the vertex between them is no key of w's, since z is the
// deepest; w is z's only later neighbour; no symmetry constraint orders
// z, w or the vertex between them; and z's keys all lie strictly
// shallower than w's deepest outer key, so the histogram, which only z's
// keys decide, outlives the prefixes that move w's outer side. It returns z's position and keys,
// or 0 and nil. A clique fails the last part: z is keyed as deep as w's
// outer side.
func (m *Matcher) eliminable() (int, []graph.VertexID) {
	tree := m.ix.Tree
	n := tree.NumVertices()
	w := tree.Order[n-1]
	if len(tree.NTEParents[w]) == 0 {
		return 0, nil // one input: no outer side
	}
	wKeys := keysOf(tree, w)
	z, outer := wKeys[len(wKeys)-1], wKeys[len(wKeys)-2]
	at := tree.Pos[z]
	if at < n-3 {
		return 0, nil
	}
	for _, u := range tree.Order[at:] {
		if m.constrained[u] {
			return 0, nil
		}
	}
	for _, x := range tree.Query.Neighbors(z) {
		if tree.Pos[x] > at && x != w {
			return 0, nil
		}
	}
	zKeys := keysOf(tree, z)
	if tree.Pos[zKeys[len(zKeys)-1]] >= tree.Pos[outer] {
		return 0, nil
	}
	return at, zKeys
}

// keysOf returns u's key vertices — its tree parent and NTE parents, the
// neighbours before it in the matching order — in matching order.
func keysOf(tree *order.QueryTree, u graph.VertexID) []graph.VertexID {
	var keys []graph.VertexID
	for _, x := range tree.Query.Neighbors(u) {
		if tree.Pos[x] < tree.Pos[u] {
			keys = append(keys, x)
		}
	}
	slices.SortFunc(keys, func(a, b graph.VertexID) int { return tree.Pos[a] - tree.Pos[b] })
	return keys
}

// consFor returns the constraints an assignment to u must pass: nil when
// none orders u.
func (m *Matcher) consFor(u graph.VertexID) *auto.Constraints {
	if m.constrained[u] {
		return m.cons
	}
	return nil
}

// Index returns the underlying CECI index.
func (m *Matcher) Index() *ceci.Index { return m.ix }

// Over returns a matcher enumerating ix — an index of the same query tree
// and data graph, such as a view of m's restricted to some of its pivots
// (ceci.Index.Restrict) — under limit, with m's sharing rule,
// symmetry-breaking constraints and sinks: its work lands in the same
// ledger, Stats, profile and progress reporter as m's.
func (m *Matcher) Over(ix *ceci.Index, limit int64) *Matcher {
	o := *m
	o.ix, o.opts.Limit = ix, limit
	return &o
}

// Enumerate hands the embeddings to fn — or, when fn is nil, counts them
// with no callback per embedding — under ctx and Limit. It returns how
// many were delivered (what the workers drained), whether the run went to
// its end with nothing stopping it (no limit, consumer or context), and
// the context's cause when ctx cut it short. The slice passed to fn is
// indexed by query vertex ID and reused between calls: copy it to retain
// it. fn may be called concurrently from multiple workers and must be
// goroutine-safe; returning false stops the enumeration early. When ctx
// is cancelled or its deadline passes, the shared stop flag is raised and
// every worker unwinds at its next depth step — the same mechanism Limit
// uses, so cancellation adds nothing to the per-step cost and nothing to
// the steady-state allocation count. Embeddings already delivered stay
// delivered.
func (m *Matcher) Enumerate(ctx context.Context, fn func(emb []graph.VertexID) bool) (n int64, finished bool, err error) {
	ctl := &control{fn: fn, limit: m.opts.Limit}
	err = m.forEachCtx(ctx, ctl)
	return ctl.counted.Load(), !ctl.stop.Load(), err
}

// Count enumerates and returns the number of embeddings (respecting
// Limit if set).
func (m *Matcher) Count() int64 {
	n, _, _ := m.Enumerate(context.Background(), nil)
	return n
}

// CountCtx counts embeddings under ctx. On cancellation or deadline it
// returns the embeddings delivered so far together with the context's
// error, so callers can report partial counts.
func (m *Matcher) CountCtx(ctx context.Context) (int64, error) {
	n, _, err := m.Enumerate(ctx, nil)
	return n, err
}

// Collect gathers embeddings into a slice (each indexed by query vertex
// ID). Intended for tests and small result sets; prefer ForEach for
// large enumerations.
func (m *Matcher) Collect() [][]graph.VertexID {
	var mu sync.Mutex
	var out [][]graph.VertexID
	m.ForEach(func(emb []graph.VertexID) bool {
		cp := make([]graph.VertexID, len(emb))
		copy(cp, emb)
		mu.Lock()
		out = append(out, cp)
		mu.Unlock()
		return true
	})
	return out
}

// ForEach calls fn for every embedding (see Enumerate).
func (m *Matcher) ForEach(fn func(emb []graph.VertexID) bool) {
	m.Enumerate(context.Background(), fn)
}

// ForEachCtx is ForEach under a context: the return value is the
// context's cause, nil on a complete, uncancelled enumeration (see
// Enumerate).
func (m *Matcher) ForEachCtx(ctx context.Context, fn func(emb []graph.VertexID) bool) error {
	_, _, err := m.Enumerate(ctx, fn)
	return err
}

func (m *Matcher) forEachCtx(ctx context.Context, ctl *control) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := ctx.Err(); err != nil {
		return err
	}
	var cancelled atomic.Bool
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			cancelled.Store(true)
			ctl.stop.Store(true)
		})
		defer stop()
	}
	m.forEach(ctx, ctl)
	if cancelled.Load() {
		return context.Cause(ctx)
	}
	return nil
}

func (m *Matcher) forEach(ctx context.Context, ctl *control) {
	// Worker 0's searcher exists before scheduling: FGD decomposition
	// runs its candidate lookups on that scratch, so the work the split
	// sub-units skip is drained with the rest of worker 0's.
	first := newSearcher(m, ctl)
	units := m.units(first)
	workers := m.opts.Workers
	if workers > len(units) && m.opts.Strategy != workload.FGD {
		workers = len(units)
	}
	if workers < 1 {
		workers = 1
	}
	m.begin(workers)
	if rep := m.opts.Progress; rep != nil {
		var card int64
		for _, u := range units {
			if card += u.Card; card < 0 { // overflow: clamp
				card = ceci.CardSaturation
			}
		}
		rep.Begin(m.opts.Ledger.Work, len(units), card)
		defer rep.Stop()
	}
	if len(units) == 0 {
		first.drain(false, 0, 0) // decomposition may have proved every cluster a dead end
		return
	}

	// StartUnder joins the request's trace when the context carries a
	// parent span or trace context (service queries, remote machines);
	// a bare ForEach stays a local root span.
	span := obs.StartUnder(ctx, m.opts.Trace, "enumerate",
		obs.String("strategy", m.opts.Strategy.String()),
		obs.Int("units", int64(len(units))),
		obs.Int("workers", int64(workers)))
	defer span.End()

	if st := m.opts.Stats; st != nil {
		st.UnitsScheduled.Add(int64(len(units)))
		if n := len(units) - len(m.ix.Pivots()); n > 0 {
			st.ExtremeSplits.Add(int64(n))
		}
	}
	if p := m.opts.Profile; p != nil {
		pivotCards := make([]int64, len(m.ix.Pivots()))
		for i := range pivotCards {
			pivotCards[i] = m.ix.ClusterCardinality(i)
		}
		unitCards := make([]int64, len(units))
		for i, u := range units {
			unitCards[i] = u.Card
		}
		p.RecordClusters(m.opts.Strategy.String(), pivotCards, unitCards)
		enumStart := time.Now()
		defer func() { p.AddEnumWall(time.Since(enumStart)) }()
	}

	// ST hands every worker a fixed group; CGD and FGD pull from one pool.
	var groups [][]workload.Unit
	var pool *workload.Pool
	if m.opts.Strategy == workload.ST {
		groups = workload.Partition(units, workers)
	} else {
		pool = workload.NewPool(units)
	}
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			s := first
			if w > 0 {
				s = newSearcher(m, ctl)
			}
			s.worker = w
			next := func() (workload.Unit, bool) {
				g := groups[w]
				if len(g) == 0 {
					return workload.Unit{}, false
				}
				groups[w] = g[1:]
				return g[0], true
			}
			if pool != nil {
				next = pool.Next
			}
			m.runWorker(s, span, next)
		}(w)
	}
	wg.Wait()
}

// begin sizes the ledger for a run of workers workers and points the
// profile, when attached, at it.
func (m *Matcher) begin(workers int) {
	tree := m.ix.Tree
	m.opts.Ledger.Begin(tree.NumVertices(), workers)
	if p := m.opts.Profile; p != nil {
		m.ix.InitProfile(p) // a loaded index was never built under p
		order := make([]int, len(tree.Order))
		for pos, u := range tree.Order {
			order[pos] = int(u)
		}
		p.ReadEnumeration(m.opts.Ledger, order)
	}
}

// units materializes the schedulable work according to the strategy.
// FGD decomposition counts its lookups on s's scratch (see
// workload.Decompose) and, when s counts from z's depth on with a
// histogram, splits no prefix past that depth, so it is formed
// once per prefix however many workers share the run. s may be nil:
// nobody counts, and every depth loops.
func (m *Matcher) units(s *searcher) []workload.Unit {
	if m.opts.Strategy != workload.FGD {
		return workload.Clusters(m.ix)
	}
	maxPrefix := m.ix.Tree.NumVertices()
	var scratch []ceci.MatchScratch
	if s != nil {
		scratch = s.scratch
		if s.elim > 0 {
			maxPrefix = s.elim
		}
	}
	return workload.Decompose(m.ix, m.cons, m.opts.Beta, m.opts.Workers, maxPrefix, scratch)
}

// control carries the shared early-termination state. The stop flag is
// raised by the limit logic, by a consumer returning false, and by the
// context watcher in ForEachCtx. fn is nil in a count-only run (Count,
// CountCtx), whose result is counted: what the workers drained.
type control struct {
	fn      func([]graph.VertexID) bool
	limit   int64
	emitted atomic.Int64 // slots reserved against limit
	counted atomic.Int64 // embeddings delivered, as of the workers' last drains
	stop    atomic.Bool
}

// deliver hands the consumer k embeddings: the one in emb (k == 1), or —
// count-only, where there is no consumer to hand anything to — the k
// survivors a leaf tallied. Under a Limit the k slots are reserved with
// one add; racing workers can reserve past the cap, and only what fits
// under it is delivered. fits is how many the consumer actually got —
// counter sinks must charge only those, or a limit- or cancel-stopped
// run reports more embeddings than its consumer ever saw — and cont
// whether enumeration may continue.
func (c *control) deliver(emb []graph.VertexID, k int64) (fits int64, cont bool) {
	cont = true
	if c.limit > 0 {
		if over := c.emitted.Add(k) - c.limit; over >= 0 {
			c.stop.Store(true)
			cont = false
			if k -= over; k <= 0 {
				return 0, false
			}
		}
	}
	if c.fn != nil && !c.fn(emb) {
		c.stop.Store(true)
		cont = false
	}
	return k, cont
}

func (m *Matcher) runWorker(s *searcher, parent *obs.Span, next func() (workload.Unit, bool)) {
	defer s.drain(false, 0, 0) // worker 0 may hold decomposition work and run no unit
	for {
		if s.ctl.stop.Load() {
			return
		}
		unit, ok := next()
		if !ok {
			return
		}
		start := time.Now()
		var span *obs.Span
		if parent != nil {
			span = parent.Child("cluster",
				obs.Int("pivot", int64(unit.Pivot(m.ix))),
				obs.Int("depth", int64(len(unit.Pos))),
				obs.Int("card", unit.Card),
				obs.Int("worker", int64(s.worker)))
		}
		ok = s.runUnit(unit)
		span.End()
		// Per-unit charges (rather than one at worker exit) keep mid-run
		// busy-time and progress snapshots meaningful.
		busy := time.Since(start)
		s.drain(true, unit.Card, busy)
		m.opts.Profile.ObserveUnit(busy)
		if !ok {
			return
		}
	}
}
