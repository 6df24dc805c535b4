package enum

import (
	"context"
	"slices"
	"sync"
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

// recordedRun is one enumeration with both stores attached — the ledger
// and the cumulative Stats — and every reader of the ledger: Profile,
// Progress, and the per-position view (Ledger.Positions).
type recordedRun struct {
	build, enum stats.Counters
	collector   *prof.Collector
	ledger      *telemetry.Ledger
	final       obs.Progress
	delivered   atomic.Int64
}

func newRecordedRun() *recordedRun {
	return &recordedRun{collector: prof.New(), ledger: telemetry.NewLedger()}
}

func (r *recordedRun) buildOptions() ceci.Options {
	return ceci.Options{Stats: &r.build, Profile: r.collector}
}

func (r *recordedRun) enumOptions(limit int64) Options {
	return Options{
		Workers: 4, Limit: limit, Strategy: workload.FGD,
		Stats: &r.enum, Profile: r.collector, Ledger: r.ledger,
		Progress: obs.NewReporter(func(p obs.Progress) {
			if p.Final {
				r.final = p
			}
		}, time.Hour),
	}
}

func (r *recordedRun) deliver([]graph.VertexID) bool {
	r.delivered.Add(1)
	return true
}

// check asserts that the two stores agree with each other and with what
// the consumer was handed, and that every reader reports the ledger's
// numbers. complete says every scheduled unit ran (no limit stopped it).
func (r *recordedRun) check(t *testing.T, order []graph.VertexID, complete bool) {
	t.Helper()
	led := r.ledger.Snapshot()
	positions, work := r.ledger.Positions(), r.ledger.Work()
	p := r.collector.Snapshot()

	// Two stores, one stream: Stats totals == ledger totals == callbacks.
	if calls := r.enum.RecursiveCalls.Load(); calls == 0 || calls != led.RecursiveCalls {
		t.Errorf("recursive calls: stats %d, ledger %d", calls, led.RecursiveCalls)
	}
	n := r.delivered.Load()
	if r.enum.Embeddings.Load() != n || led.Embeddings != n {
		t.Errorf("embeddings: delivered %d, stats %d, ledger %d", n, r.enum.Embeddings.Load(), led.Embeddings)
	}
	var intersections, verifications int64
	for _, w := range positions {
		intersections += w.Intersections
		verifications += w.Verifications
	}
	if got := r.enum.IntersectionOps.Load(); got != intersections {
		t.Errorf("IntersectionOps: stats %d, ledger Σ positions %d", got, intersections)
	}
	if got := r.enum.EdgeVerifications.Load(); got != verifications {
		t.Errorf("EdgeVerifications: stats %d, ledger Σ positions %d", got, verifications)
	}
	if scheduled := r.enum.UnitsScheduled.Load(); scheduled == 0 || led.Units > scheduled || complete && led.Units != scheduled {
		t.Errorf("units: stats scheduled %d, ledger ran %d (complete: %v)", scheduled, led.Units, complete)
	}

	// The build funnel is still counted twice (Stats and Profile).
	var dropped [3]int64
	for _, v := range p.Vertices {
		dropped[0] += v.DroppedLabel
		dropped[1] += v.DroppedDegree
		dropped[2] += v.DroppedNLC
	}
	filtered := [3]int64{r.build.FilteredLabel.Load(), r.build.FilteredDegree.Load(), r.build.FilteredNLC.Load()}
	if filtered != dropped {
		t.Errorf("build funnel label/degree/nlc: stats %v, profile Σ dropped %v", filtered, dropped)
	}

	// Profile reads the ledger: per-vertex steps and kernel mix are the
	// positions bucketed by matching order, the worker table is the
	// ledger's.
	if len(positions) != len(order) {
		t.Fatalf("ledger has %d positions, the order %d", len(positions), len(order))
	}
	kernels := map[string]obs.KernelMix{}
	for pos, u := range order {
		e, w := p.Vertices[u].Enum, positions[pos]
		if e.Lookups != w.Lookups || e.Intersections != w.Intersections ||
			e.Comparisons != w.Comparisons || e.Output != w.Output {
			t.Errorf("position %d (u%d): profile %+v, ledger %+v", pos, u, e, w.StepCounts)
		}
		for _, k := range e.Kernels {
			sum := kernels[k.Kernel]
			sum.Kernel = k.Kernel
			sum.Calls += k.Calls
			sum.Scanned += k.Scanned
			sum.Emitted += k.Emitted
			kernels[k.Kernel] = sum
		}
	}
	if len(led.Kernels) != len(kernels) {
		t.Errorf("ledger kernel mix %+v, profile %+v", led.Kernels, kernels)
	}
	for _, k := range led.Kernels {
		if kernels[k.Kernel] != k {
			t.Errorf("kernel %s: ledger %+v, profile Σ %+v", k.Kernel, k, kernels[k.Kernel])
		}
	}
	if len(p.Workers) != len(work.WorkerBusy) {
		t.Fatalf("profile has %d workers, ledger %d", len(p.Workers), len(work.WorkerBusy))
	}
	for i, w := range p.Workers {
		if w.Busy != work.WorkerBusy[i] || w.Units != work.WorkerDone[i] {
			t.Errorf("worker %d: profile %+v, ledger %v / %d units", i, w, work.WorkerBusy[i], work.WorkerDone[i])
		}
	}

	// Progress samples the ledger.
	if !r.final.Final || r.final.Embeddings != led.Embeddings || r.final.ClustersDone != led.Units ||
		r.final.CardinalityDone != work.Cardinality || !slices.Equal(r.final.WorkerBusy, work.WorkerBusy) {
		t.Errorf("final progress %+v, ledger %+v / %+v", r.final, led, work)
	}
}

// TestDepthStatsMatchProfile is the store-agreement test. The per-depth
// step counts, the kernel mix, worker time and the embedding total are
// stored once, in the run's ledger, and counted a second time only in the
// cumulative Stats — so on a 4-worker run the two stores must agree with
// each other and with what the consumer was handed, and Profile, Progress
// and the per-position view must report
// exactly the ledger's numbers — on a full enumeration, on a limit-stopped
// run, and on the two runs a limited ceci.Match that grows makes.
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
					r := newRecordedRun()
					ix := ceci.Build(tc.data, tree, r.buildOptions())
					NewMatcher(ix, r.enumOptions(limit)).ForEach(r.deliver)
					if limit > 0 && r.delivered.Load() != limit {
						t.Fatalf("limit %d delivered %d", limit, r.delivered.Load())
					}
					if tc.name == "fig1" && r.enum.ExtremeSplits.Load() == 0 {
						t.Fatal("fixture no longer splits: decomposition lookups are not exercised")
					}
					r.check(t, tree.Order, limit == 0)
				})
			}
			t.Run("incremental", func(t *testing.T) {
				// What a limited ceci.Match runs when the first cluster
				// comes up short of its limit: the index of that cluster,
				// then the complete index's clusters past it through a
				// restricted view, with what is left of the limit — both
				// builds and both runs charged to one set of sinks, the
				// progress reporter bracketed once around them.
				total := NewMatcher(ceci.Build(tc.data, tree, ceci.Options{}), Options{}).Count()
				r := newRecordedRun()
				opts := r.enumOptions(total)
				opts.Progress.Begin(r.ledger.Work, 0, 0)
				pivots := tree.Filter(tc.data).Candidates(tree.Root)
				bopts := r.buildOptions()
				bopts.Pivots = pivots[:1]
				prefix := NewMatcher(ceci.Build(tc.data, tree, bopts), opts)
				n, finished, _ := prefix.Enumerate(context.Background(), r.deliver)
				if !finished {
					t.Fatalf("the first cluster holds %d of %d embeddings: nothing grows", n, total)
				}
				full := ceci.Build(tc.data, tree, r.buildOptions())
				rest := full.Pivots()[1+slices.Index(full.Pivots(), pivots[0]):]
				prefix.Over(full.Restrict(rest), total-n).Enumerate(context.Background(), r.deliver)
				opts.Progress.Stop()
				if r.delivered.Load() != total {
					t.Fatalf("delivered %d of %d", r.delivered.Load(), total)
				}
				r.check(t, tree.Order, false)
			})
		})
	}
}

// TestDrainZeroAlloc: the drain itself — the charge to the ledger and to
// Stats, with every reader of the ledger attached — allocates nothing, so
// it can run at every unit boundary of a zero-allocation enumeration.
func TestDrainZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	data, query := gen.Fig1Data(), gen.Fig1Query()
	tree, err := order.Preprocess(data, query, order.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := newRecordedRun()
	ix := ceci.Build(data, tree, r.buildOptions())
	opts := r.enumOptions(0)
	opts.Workers = 1
	m := NewMatcher(ix, opts)
	m.begin(1)
	opts.Progress.Begin(r.ledger.Work, 0, 0)
	defer opts.Progress.Stop()
	s := newSearcher(m, &control{fn: r.deliver})
	all := m.units(nil)
	units := func() {
		for _, u := range all {
			s.runUnit(u)
			s.drain(true, u.Card, time.Microsecond)
		}
	}
	pass := func() {
		units()
		s.drain(false, 0, 0) // what a worker's exit does: the per-depth counts
	}
	pass()
	if avg := testing.AllocsPerRun(20, pass); avg != 0 {
		t.Errorf("enumeration pass with per-unit drains allocates %.1f times, want 0", avg)
	}
	led := r.ledger.Snapshot()
	if led.Embeddings != r.delivered.Load() || led.Units == 0 || len(led.Kernels) == 0 {
		t.Fatalf("drain charged nothing: %+v", led)
	}
	if p := r.collector.Snapshot(); p.Workers[0].Units != led.Units || p.Vertices[tree.Order[1]].Enum.Lookups == 0 {
		t.Fatalf("profile does not read the ledger: %+v", p)
	}
}

// TestReadersDuringEnumeration snapshots every reader of the ledger —
// Profile, Progress, QueryResources, the per-position view — from other
// goroutines while 8 workers are draining into it: under -race this is
// the proof that reading a live run needs nothing from the workers, and
// every value read must be one the finished run can still reach. The
// run is paused part-way (pauseGate) until each reader has read it, so
// that the readers see it live does not depend on how the goroutines
// are scheduled.
func TestReadersDuringEnumeration(t *testing.T) {
	// 5,600,090 embeddings counted from a histogram of the last vertex
	// (searcher.eliminate) over many units.
	data, query := gen.ErdosRenyi(600, 12000, 17), gen.QG4()
	tree, err := order.Preprocess(data, query, order.Options{})
	if err != nil {
		t.Fatal(err)
	}
	r := newRecordedRun()
	ix := ceci.Build(data, tree, r.buildOptions())
	opts := r.enumOptions(0)
	opts.Workers = 8
	const readers = 2
	gate := &pauseGate{ledger: r.ledger}
	gate.reads.Add(readers)
	opts.Trace = obs.NewTracer(obs.TracerOptions{OnStart: gate.onStart})
	m := NewMatcher(ix, opts)

	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	// Per reader, what the ledger and Progress showed while the run was
	// paused.
	var seen [readers]struct{ embeddings, units, progress int64 }
	for g := range seen {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var lastEmb, lastLookups int64
			waiting := true
			for ctx.Err() == nil {
				paused := gate.paused.Load()
				p := r.collector.Snapshot()
				var lookups int64
				for _, v := range p.Vertices {
					lookups += v.Enum.Lookups
				}
				res := r.ledger.Snapshot()
				if res.Embeddings < lastEmb || lookups < lastLookups {
					t.Errorf("a live read went backwards: embeddings %d → %d, lookups %d → %d",
						lastEmb, res.Embeddings, lastLookups, lookups)
				}
				lastEmb, lastLookups = res.Embeddings, lookups
				progress := opts.Progress.Snapshot(false)
				if paused && waiting {
					// Every read of this pass happened while the run was
					// paused: the gate waits for this Done.
					seen[g].embeddings, seen[g].units, seen[g].progress = res.Embeddings, res.Units, progress.Embeddings
					waiting = false
					gate.reads.Done()
				}
			}
		}()
	}
	n := m.Count()
	cancel()
	wg.Wait()
	if !gate.paused.Load() {
		t.Fatalf("count %d: no unit started after the ledger held a unit and embeddings, so the run never paused", n)
	}
	for g, w := range seen {
		if w.embeddings <= 0 || w.units <= 0 || w.progress <= 0 {
			t.Fatalf("count %d: reader %d read %+v while the run was paused: nothing read the run live", n, g, w)
		}
	}
	r.delivered.Store(n) // count-only: the total drained is what was delivered
	r.check(t, tree.Order, true)
}

// pauseGate is a span start hook that pauses an enumeration: the first
// "cluster" span to start once the ledger holds a finished unit and
// embeddings waits in onStart, with the tracer's lock held — so every
// other worker waits at its next span — until each reader has read the
// run through once.
type pauseGate struct {
	ledger *telemetry.Ledger
	paused atomic.Bool
	reads  sync.WaitGroup // one Done per reader
}

func (g *pauseGate) onStart(name string) {
	if g.paused.Load() || name != "cluster" {
		return
	}
	if led := g.ledger.Snapshot(); led.Units > 0 && led.Embeddings > 0 {
		g.paused.Store(true)
		g.reads.Wait()
	}
}
