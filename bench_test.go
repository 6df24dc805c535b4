// Benchmarks: one testing.B target per table/figure of the paper's
// evaluation (Section 6), sized so `go test -bench=. -benchmem` completes
// on a laptop. The cecibench command runs the full-size experiments and
// prints the paper's row/series formats; these benches track the same
// code paths continuously.
//
// Per-experiment map (see DESIGN.md §6 and EXPERIMENTS.md):
//
//	Table 2     -> BenchmarkTable2_IndexBuild
//	Figure 7/8  -> BenchmarkFig7_* (CECI vs DualSim vs PsgL, all embeddings)
//	Figure 9    -> BenchmarkFig9_* (first-1024 labeled, CECI vs CFLMatch)
//	Figure 10   -> BenchmarkFig10_* (CECI vs TurboIso)
//	Figure 11   -> BenchmarkFig11_* (ST vs CGD vs FGD schedules)
//	Figure 13/14-> BenchmarkFig13_* (unit measurement + schedule sim)
//	Figure 16/17-> BenchmarkFig16_* (distributed simulation)
//	Figure 18/19-> BenchmarkFig19_* (pipeline ablations)
//	setops      -> BenchmarkSetops_* (the Lemma 2 hot path)
package ceci_test

import (
	"errors"
	"sync/atomic"
	"testing"
	"time"

	"ceci"
	"ceci/internal/baseline"
	"ceci/internal/baseline/cfl"
	"ceci/internal/baseline/dualsim"
	"ceci/internal/baseline/psgl"
	"ceci/internal/baseline/turboiso"
	icec "ceci/internal/ceci"
	"ceci/internal/cluster"
	"ceci/internal/datasets"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/setops"
	"ceci/internal/workload"
)

// Bench datasets: small enough for -bench runs, shaped like the paper's.
var (
	benchSkewed  = gen.ChungLu(8000, 6, 2.1, 1)  // wiki-talk-like skew
	benchSmall   = gen.ChungLu(2500, 4, 2.1, 8)  // for the cycle-heavy QG4
	benchSocial  = gen.ChungLu(6000, 12, 2.3, 2) // LJ-like
	benchLabeled = gen.WithRandomLabels(gen.Kronecker(12, 4, 3), 50, 4)
	benchDense   = gen.WithRandomMultiLabels(gen.ErdosRenyi(1000, 40000, 5), 90, 3, 6)
)

func buildFor(b *testing.B, data, query *graph.Graph) (*icec.Index, *order.QueryTree) {
	b.Helper()
	tree, err := order.Preprocess(data, query, order.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	return icec.Build(data, tree, icec.Options{}), tree
}

// BenchmarkTable2_IndexBuild measures CECI construction + refinement (the
// quantity whose size Table 2 reports and whose cost Figure 20 breaks
// down).
func BenchmarkTable2_IndexBuild(b *testing.B) {
	for _, q := range []struct {
		name  string
		query *graph.Graph
	}{
		{"QG1", gen.QG1()}, {"QG3", gen.QG3()}, {"QG5", gen.QG5()},
	} {
		b.Run(q.name, func(b *testing.B) {
			tree, err := order.Preprocess(benchSkewed, q.query, order.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			var bytes int64
			for i := 0; i < b.N; i++ {
				ix := icec.Build(benchSkewed, tree, icec.Options{})
				bytes = ix.SizeBytes()
			}
			b.ReportMetric(float64(bytes), "index-bytes")
		})
	}
	// The build path the repo benchmark's lib_build workload stresses: a
	// cold query on the dense multi-label HU substitute (~300 neighbors
	// per vertex, up to three of 90 labels each), preprocessing included
	// since the build reads the verdict tables it computes, then the
	// paper's first-1024 enumeration.
	b.Run("hu_s_dfs8", func(b *testing.B) {
		data, err := datasets.Load("hu_s")
		if err != nil {
			b.Fatal(err)
		}
		query, err := gen.DFSQuery(data, 8, gen.NewRNG(1))
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		var bytes, n int64
		for i := 0; i < b.N; i++ {
			tree, err := order.Preprocess(data, query, order.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			ix := icec.Build(data, tree, icec.Options{Workers: 1})
			bytes = ix.SizeBytes()
			n = enum.NewMatcher(ix, enum.Options{Workers: 1, Limit: 1024}).Count()
		}
		b.ReportMetric(float64(bytes), "index-bytes")
		b.ReportMetric(float64(n), "embeddings")
	})
	// The other half of lib_build, and the removal-heavy case the rows
	// above lack: a labeled 5-clique on ok_s under 16 random labels (one
	// of the build_qg classes of benchmark/pools.json). Refinement drops
	// 15-45 % of each non-root vertex's candidates at its level and a
	// third of the root's follow by cascade, so the cost of deleting a set
	// is visible here where the rows above spend their time expanding.
	b.Run("ok_s_qg5", func(b *testing.B) {
		data, err := datasets.Load("ok_s")
		if err != nil {
			b.Fatal(err)
		}
		data = gen.WithRandomLabels(data, 16, 7)
		qb := graph.NewBuilder(5)
		for u, l := range []graph.Label{1, 6, 15, 15, 10} {
			qb.SetLabel(graph.VertexID(u), l)
		}
		gen.QG5().Edges(func(u, v graph.VertexID) bool {
			qb.AddEdge(u, v)
			return true
		})
		query := qb.MustBuild()
		b.ReportAllocs()
		b.ResetTimer()
		var bytes int64
		for i := 0; i < b.N; i++ {
			tree, err := order.Preprocess(data, query, order.DefaultOptions())
			if err != nil {
				b.Fatal(err)
			}
			bytes = icec.Build(data, tree, icec.Options{Workers: 1}).SizeBytes()
		}
		b.ReportMetric(float64(bytes), "index-bytes")
	})
}

// Figure 7/8: all-embeddings listing, CECI vs the parallel baselines.
func BenchmarkFig7_CECI_QG1(b *testing.B) { benchCECIAll(b, benchSkewed, gen.QG1()) }
func BenchmarkFig7_CECI_QG4(b *testing.B) { benchCECIAll(b, benchSmall, gen.QG4()) }
func BenchmarkFig8_CECI_QG2(b *testing.B) { benchCECIAll(b, benchSocial, gen.QG2()) }
func BenchmarkFig8_CECI_QG3(b *testing.B) { benchCECIAll(b, benchSocial, gen.QG3()) }
func BenchmarkFig7_PsgL_QG1(b *testing.B) { benchBaselineAll(b, psgl.ForEach, benchSkewed, gen.QG1()) }
func BenchmarkFig7_PsgL_QG4(b *testing.B) { benchBaselineAll(b, psgl.ForEach, benchSmall, gen.QG4()) }
func BenchmarkFig7_DualSim_QG1(b *testing.B) {
	benchBaselineAll(b, func(d, q *graph.Graph, o baseline.Options, fn func([]graph.VertexID) bool) error {
		return dualsim.ForEachOpt(d, q, dualsim.Options{Options: o, BufferPages: 128}, fn)
	}, benchSkewed, gen.QG1())
}

func benchCECIAll(b *testing.B, data, query *graph.Graph) {
	b.ReportAllocs()
	var n int64
	for i := 0; i < b.N; i++ {
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			b.Fatal(err)
		}
		ix := icec.Build(data, tree, icec.Options{})
		n = enum.NewMatcher(ix, enum.Options{Strategy: workload.FGD}).Count()
	}
	b.ReportMetric(float64(n), "embeddings")
}

func benchBaselineAll(b *testing.B, f baseline.ForEachFunc, data, query *graph.Graph) {
	b.ReportAllocs()
	var n int64
	for i := 0; i < b.N; i++ {
		var c atomic.Int64
		err := f(data, query, baseline.Options{}, func([]graph.VertexID) bool {
			c.Add(1)
			return true
		})
		if errors.Is(err, psgl.ErrIntermediatesExceeded) {
			b.Skip("baseline DNF: intermediate blowup (the workload the figure reports as DNF)")
		}
		if err != nil {
			b.Fatal(err)
		}
		n = c.Load()
	}
	b.ReportMetric(float64(n), "embeddings")
}

// Figure 9: first-1024 labeled matching, CECI vs CFLMatch.
func BenchmarkFig9_CECI_First1024(b *testing.B) {
	query := mustQuery(b, benchLabeled, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := ceci.Match(benchLabeled, query, &ceci.Options{Workers: 1, Limit: 1024, Strategy: ceci.StrategyCoarse})
		if err != nil {
			b.Fatal(err)
		}
		m.Count()
	}
}

func BenchmarkFig9_CFL_First1024(b *testing.B) {
	query := mustQuery(b, benchLabeled, 8)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := cfl.Count(benchLabeled, query, baseline.Options{Workers: 1, Limit: 1024}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 10: CECI vs TurboIso on the dense multi-labeled graph.
func BenchmarkFig10_CECI(b *testing.B) {
	query := mustQuery(b, benchDense, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m, err := ceci.Match(benchDense, query, &ceci.Options{Workers: 1, Limit: 1024, Strategy: ceci.StrategyCoarse})
		if err != nil {
			b.Fatal(err)
		}
		m.Count()
	}
}

func BenchmarkFig10_TurboIso(b *testing.B) {
	query := mustQuery(b, benchDense, 6)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := turboiso.Count(benchDense, query, turboiso.Options{
			Options: baseline.Options{Workers: 1, Limit: 1024},
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 11: strategy scheduling over measured unit costs.
func BenchmarkFig11_Decompose(b *testing.B) {
	ix, _ := buildFor(b, benchSkewed, gen.QG3())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		units := workload.Decompose(ix, nil, 0.2, 16, ix.Tree.NumVertices(), nil)
		if len(units) == 0 {
			b.Fatal("no units")
		}
	}
}

// Figure 13/14: per-unit measurement feeding the scalability simulation.
func BenchmarkFig13_MeasureUnits(b *testing.B) {
	ix, _ := buildFor(b, benchSkewed, gen.QG1())
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m := enum.NewMatcher(ix, enum.Options{Workers: 1, Strategy: workload.CGD})
		costs := m.MeasureUnits()
		workload.SimulateMakespan(durationsOf(costs), 16, workload.CGD)
	}
}

// Figure 16/17: one distributed simulation step (replicated mode).
func BenchmarkFig16_ClusterSimulate(b *testing.B) {
	small := gen.ChungLu(3000, 6, 2.1, 9)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		sim, err := cluster.NewSimulation(small, gen.QG1())
		if err != nil {
			b.Fatal(err)
		}
		if _, err := sim.Run(cluster.Config{Machines: 4, WorkersPerMachine: 2}); err != nil {
			b.Fatal(err)
		}
	}
}

// Figure 18/19 ablations: intersection vs edge verification, refinement
// on/off — the components whose stacked speedup Figure 19 plots.
func BenchmarkFig19_FullCECI(b *testing.B)   { benchAblation(b, false, false) }
func BenchmarkFig19_EdgeVerify(b *testing.B) { benchAblation(b, false, true) }
func BenchmarkFig19_NoRefine(b *testing.B)   { benchAblation(b, true, true) }

func benchAblation(b *testing.B, skipRefine, edgeVerify bool) {
	query := gen.QG3()
	tree, err := order.Preprocess(benchSkewed, query, order.DefaultOptions())
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		ix := icec.Build(benchSkewed, tree, icec.Options{SkipRefinement: skipRefine})
		enum.NewMatcher(ix, enum.Options{EdgeVerification: edgeVerify, Strategy: workload.FGD}).Count()
	}
}

// Set-intersection kernels: the Lemma 2 hot path.
func BenchmarkSetops_IntersectMerge(b *testing.B) {
	x, y := ladder(4096, 3), ladder(4096, 5)
	b.ReportAllocs()
	var dst []uint32
	for i := 0; i < b.N; i++ {
		dst = setops.Intersect(dst[:0], x, y)
	}
}

func BenchmarkSetops_IntersectGallop(b *testing.B) {
	x, y := ladder(64, 97), ladder(65536, 3)
	b.ReportAllocs()
	var dst []uint32
	for i := 0; i < b.N; i++ {
		dst = setops.Intersect(dst[:0], x, y)
	}
}

func BenchmarkSetops_IntersectK(b *testing.B) {
	lists := [][]uint32{ladder(2048, 3), ladder(2048, 5), ladder(2048, 7)}
	var sc setops.Scratch
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		setops.IntersectK(&sc, lists)
	}
}

// Edge probe vs intersection: the micro-comparison behind Lemma 2.
func BenchmarkLemma2_EdgeVerification(b *testing.B) {
	data := benchSocial
	m, err := ceci.Match(data, gen.QG3(), &ceci.Options{EdgeVerification: true, Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Count()
	}
}

func BenchmarkLemma2_Intersection(b *testing.B) {
	data := benchSocial
	m, err := ceci.Match(data, gen.QG3(), &ceci.Options{Workers: 1})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Count()
	}
}

func ladder(n int, step uint32) []uint32 {
	out := make([]uint32, n)
	for i := range out {
		out[i] = uint32(i) * step
	}
	return out
}

func durationsOf(costs []enum.UnitCost) []time.Duration {
	ds := make([]time.Duration, len(costs))
	for i, c := range costs {
		ds[i] = c.Duration
	}
	return ds
}

func mustQuery(b *testing.B, data *graph.Graph, size int) *graph.Graph {
	b.Helper()
	qs := gen.QuerySet(data, size, 1, 77)
	if len(qs) == 0 {
		b.Skip("no query region")
	}
	return qs[0]
}
