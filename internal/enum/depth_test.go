package enum

import (
	"sync/atomic"
	"testing"
	"time"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/obs"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/stats"
	"ceci/internal/telemetry"
	"ceci/internal/workload"
)

// sinkRun is one enumeration with every instrumentation sink attached.
type sinkRun struct {
	build, enum stats.Counters
	collector   *prof.Collector
	ledger      *telemetry.Ledger
	depth       *DepthStats
	final       obs.Progress
	delivered   atomic.Int64
}

func newSinkRun(depths int) *sinkRun {
	return &sinkRun{collector: prof.New(), ledger: telemetry.NewLedger(), depth: NewDepthStats(depths)}
}

func (r *sinkRun) buildOptions() ceci.Options {
	return ceci.Options{Stats: &r.build, Profile: r.collector}
}

func (r *sinkRun) enumOptions(limit int64) Options {
	return Options{
		Workers: 4, Limit: limit, Strategy: workload.FGD,
		Stats: &r.enum, Profile: r.collector, Ledger: r.ledger, Depth: r.depth,
		Progress: obs.NewReporter(func(p obs.Progress) {
			if p.Final {
				r.final = p
			}
		}, time.Hour),
	}
}

func (r *sinkRun) deliver([]graph.VertexID) bool {
	r.delivered.Add(1)
	return true
}

// check asserts that the sinks, being views of one drained stream, agree.
func (r *sinkRun) check(t *testing.T, order []graph.VertexID) {
	t.Helper()
	led := r.ledger.Snapshot()
	p := r.collector.Snapshot()
	if calls := r.enum.RecursiveCalls.Load(); calls == 0 || calls != led.RecursiveCalls {
		t.Errorf("recursive calls: stats %d, ledger %d", calls, led.RecursiveCalls)
	}
	n := r.delivered.Load()
	if r.enum.Embeddings.Load() != n || led.Embeddings != n || r.final.Embeddings != n {
		t.Errorf("embeddings: delivered %d, stats %d, ledger %d, final progress %d",
			n, r.enum.Embeddings.Load(), led.Embeddings, r.final.Embeddings)
	}

	var intersections int64
	kernels := map[string]prof.KernelProfile{}
	var dropped [3]int64
	for _, v := range p.Vertices {
		intersections += v.Enum.Intersections
		for _, k := range v.Enum.Kernels {
			sum := kernels[k.Kernel]
			sum.Calls += k.Calls
			sum.Scanned += k.Scanned
			sum.Emitted += k.Emitted
			kernels[k.Kernel] = sum
		}
		dropped[0] += v.DroppedLabel
		dropped[1] += v.DroppedDegree
		dropped[2] += v.DroppedNLC
	}
	if got := r.enum.IntersectionOps.Load(); got != intersections {
		t.Errorf("enumeration IntersectionOps = %d, profile Σ intersections = %d", got, intersections)
	}
	if len(led.Kernels) != len(kernels) {
		t.Errorf("ledger kernel mix %+v, profile %+v", led.Kernels, kernels)
	}
	for _, k := range led.Kernels {
		if sum := kernels[k.Kernel]; k.Calls != sum.Calls || k.Scanned != sum.Scanned || k.Emitted != sum.Emitted {
			t.Errorf("kernel %s: ledger %+v, profile Σ %+v", k.Kernel, k, sum)
		}
	}
	lookups, emitted := r.depth.Snapshot()
	for pos, u := range order {
		e := p.Vertices[u].Enum
		if lookups[pos] != e.Lookups || emitted[pos] != e.Output {
			t.Errorf("depth %d (u%d): depth stats %d/%d != profile %d/%d",
				pos, u, lookups[pos], emitted[pos], e.Lookups, e.Output)
		}
	}
	filtered := [3]int64{r.build.FilteredLabel.Load(), r.build.FilteredDegree.Load(), r.build.FilteredNLC.Load()}
	if filtered != dropped {
		t.Errorf("build funnel label/degree/nlc: stats %v, profile Σ dropped %v", filtered, dropped)
	}
}

// TestDepthStatsMatchProfile is the sink-agreement test. Stats, Profile,
// Ledger, Depth and Progress are views of one drained stream, so on a
// 4-worker run with all five attached they must report the same events:
// the per-depth counters equal the EXPLAIN ANALYZE per-vertex funnel
// bucketed by order position, the ledger's totals and kernel mix equal
// the profile's sums and the stats counters, and the embedding count
// equals what the consumer was handed — on a full enumeration, on the
// incremental driver, and on a limit-stopped run.
func TestDepthStatsMatchProfile(t *testing.T) {
	cases := []struct {
		name        string
		data, query *graph.Graph
	}{
		{"fig1", gen.Fig1Data(), gen.Fig1Query()},
		{"random-pair-11", nil, nil},
	}
	cases[1].data, cases[1].query = gen.RandomPair(11)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			// Root u2 on Fig. 1 yields two clusters that FGD splits at 4
			// workers, so decomposition lookups are part of the stream.
			tree, err := order.Preprocess(tc.data, tc.query, order.Options{ForcedRoot: 2})
			if err != nil {
				t.Fatal(err)
			}
			for _, limit := range []int64{0, 1} {
				name := "match"
				if limit > 0 {
					name = "limit"
				}
				t.Run(name, func(t *testing.T) {
					r := newSinkRun(tree.NumVertices())
					ix := ceci.Build(tc.data, tree, r.buildOptions())
					NewMatcher(ix, r.enumOptions(limit)).ForEach(r.deliver)
					if limit > 0 && r.delivered.Load() != limit {
						t.Fatalf("limit %d delivered %d", limit, r.delivered.Load())
					}
					if tc.name == "fig1" && r.enum.ExtremeSplits.Load() == 0 {
						t.Fatal("fixture no longer splits: decomposition lookups are not exercised")
					}
					r.check(t, tree.Order)
				})
			}
			t.Run("incremental", func(t *testing.T) {
				r := newSinkRun(tree.NumVertices())
				ForEachIncremental(tc.data, tree, r.buildOptions(), r.enumOptions(0), r.deliver)
				r.check(t, tree.Order)
			})
		})
	}
}

// TestDrainZeroAlloc: the drain itself — delta, watermark advance, and
// the charge to every sink — allocates nothing, so it can run at every
// unit boundary of a zero-allocation enumeration.
func TestDrainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := newSinkRun(tree.NumVertices())
	ix := ceci.Build(data, tree, r.buildOptions())
	opts := r.enumOptions(0)
	opts.Workers = 1
	opts.Progress.SetClock(stats.NewWorkerClock(1))
	r.collector.EnsureWorkers(1)
	m := NewMatcher(ix, opts)
	s := newSearcher(m, &control{fn: r.deliver})
	units := m.units(nil)
	pass := func() {
		for _, u := range units {
			s.runUnit(u)
			s.drain(true, u.Card, time.Microsecond)
		}
	}
	pass()
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Errorf("enumeration pass with per-unit drains to every sink allocates %.1f times, want 0", avg)
	}
	if led := r.ledger.Snapshot(); led.Embeddings != r.delivered.Load() || led.Units == 0 {
		t.Fatalf("drain charged nothing: %+v", led)
	}
}

// TestDepthStatsZeroAlloc: enabling the depth counters must not break
// the zero-allocation steady state — counting is two plain adds, and
// the unit-boundary drain reuses the watermark slices.
func TestDepthStatsZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{})
	if err != nil {
		t.Fatal(err)
	}
	ix := ceci.Build(data, tree, ceci.Options{})
	ds := NewDepthStats(tree.NumVertices())
	m := NewMatcher(ix, Options{Workers: 1, Strategy: workload.FGD, Depth: ds})
	units := m.units(nil)
	if len(units) == 0 {
		t.Skip("no work units")
	}
	ctl := &control{fn: func([]graph.VertexID) bool { return true }}
	s := newSearcher(m, ctl)
	pass := func() {
		for _, u := range units {
			s.runUnit(u)
		}
		s.drain(false, 0, 0)
	}
	pass()
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Errorf("depth-counted enumeration pass allocates %.1f times, want 0", avg)
	}
	if l, _ := ds.Snapshot(); l[1] == 0 {
		t.Fatal("depth stats recorded nothing")
	}
}
