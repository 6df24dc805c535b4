package enum

import (
	"slices"
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/gen"
	"ceci/internal/graph"
	"ceci/internal/order"
	"ceci/internal/prof"
	"ceci/internal/workload"
)

// denseClique returns K_n: every candidate list during a clique-query
// enumeration is a gap-1 run, the densest input the probe kernel sees.
func denseClique(n int) *graph.Graph {
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(graph.VertexID(i), graph.VertexID(j))
		}
	}
	return b.MustBuild()
}

// labeledSquare returns the square QG2 with its four vertices labelled
// 0–3: no automorphism, so nothing constrains it and a count-only run
// counts its last vertex from a histogram.
func labeledSquare() *graph.Graph {
	b := graph.NewBuilder(4)
	for u := 0; u < 4; u++ {
		b.SetLabel(graph.VertexID(u), graph.Label(u))
	}
	gen.QG2().Edges(func(u, v graph.VertexID) bool {
		b.AddEdge(u, v)
		return true
	})
	return b.MustBuild()
}

// labeledHouse returns the house QG4 labelled so that no automorphism
// survives and its roof y and the corner z it is ordered after share a
// label: a count-only run counts its last vertex from a histogram with z
// at n-3 and forms the Z∩A correction.
func labeledHouse() *graph.Graph {
	b := graph.NewBuilder(5)
	for u, l := range []graph.Label{0, 1, 0, 1, 1} {
		b.SetLabel(graph.VertexID(u), l)
	}
	gen.QG4().Edges(func(u, v graph.VertexID) bool {
		b.AddEdge(u, v)
		return true
	})
	return b.MustBuild()
}

// hubTriangles returns two hub vertices connected to every leaf plus a
// leaf-chain, so triangle enumeration intersects a huge hub adjacency
// against tiny leaf adjacencies — a >16:1 skew that drives the gallop
// kernel.
func hubTriangles(leaves int) *graph.Graph {
	b := graph.NewBuilder(2 + leaves)
	for i := 0; i < leaves; i++ {
		leaf := graph.VertexID(2 + i)
		b.AddEdge(0, leaf)
		b.AddEdge(1, leaf)
		if i > 0 {
			b.AddEdge(leaf-1, leaf)
		}
	}
	b.AddEdge(0, 1)
	return b.MustBuild()
}

// kernelCalls runs a profiled enumeration of (data, query) and returns
// the per-kernel call totals, so fixtures can assert which kernel the
// adaptive selector actually exercised.
func kernelCalls(t *testing.T, data, query *graph.Graph) map[string]int64 {
	t.Helper()
	tree, err := order.Preprocess(data, query, order.Options{})
	if err != nil {
		t.Fatalf("Preprocess: %v", err)
	}
	collector := prof.New()
	ix := ceci.Build(data, tree, ceci.Options{Profile: collector})
	NewMatcher(ix, Options{Workers: 1, Profile: collector}).Count()
	return collector.Snapshot().FunnelTotals()
}

// TestEnumerationStepZeroAlloc proves the steady-state enumeration step —
// CandidatesFor against the index columns through the per-depth cursor
// (fingers, the outer side and its lazily filled bitmap, the kept
// result), setops.IntersectK through the per-depth scratch, the
// word-packed injectivity bitmap, the symmetry-breaking check, and the
// last depth finished in place — for a consumer, and count-only, where
// leaf tallies Fig. 1's last depth and the labelled square's and house's
// last vertex is counted from a histogram, the house's with O marked for
// Z∩A — performs zero heap allocations
// once a worker's buffers are warm. This is the contract the
// arena-backed index exists to provide; any regression (a closure
// capture, a map lookup that boxes, a scratch slice that stopped being
// reused) fails here before it shows up in benchmarks.
func TestEnumerationStepZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates; run without -race")
	}
	cases := []struct {
		name        string
		data, query *graph.Graph
		wantKernel  string // kernel that must fire for this fixture ("" = any)
		wantBitmap  bool   // some depth must end the pass probing its outer bitmap
		wantElim    int    // count-only must finish from depth n-wantElim with eliminate (0: need not)
		wantWide    bool   // a vertex with non-tree edges must have a four-byte arena
	}{
		{"fig1", gen.Fig1Data(), gen.Fig1Query(), "", false, 0, false},
		{"random-pair-7", nil, nil, "", false, 0, false},
		// A square whose count-only pass refills the histogram once per
		// cluster and counts each prefix from it.
		{"square-eliminate", gen.WithRandomLabels(gen.ErdosRenyi(80, 480, 3), 4, 3), labeledSquare(), "", false, 2, false},
		// A house whose count-only pass marks O in the histogram for Z∩A,
		// which must be non-zero on some prefix.
		{"house-eliminate", gen.WithRandomLabels(gen.ErdosRenyi(80, 480, 3), 3, 3), labeledHouse(), "", false, 3, false},
		// Dense clique: gap-1 candidate lists, the probe kernel's densest
		// input, proving its span-bitmap reuse is allocation-free.
		{"dense-probe", denseClique(48), gen.QG3(), "probe", true, 0, false},
		// Hub skew on a 4-clique query: enumeration intersects a huge hub
		// adjacency against tiny leaf adjacencies, a >16:1 ratio that
		// forces the gallop kernel.
		{"skew-gallop", hubTriangles(600), gen.QG3(), "gallop", false, 0, false},
		// Triangle query over the same hub graph: the moderately sparse
		// comparably sized leaf-chain lists drive the probe kernel, and
		// the hubs' sibling loops run to hundreds of iterations over one
		// outer list — the loop the outer bitmap is filled for.
		{"hub-probe", hubTriangles(600), gen.QG1(), "probe", true, 0, false},
		// One vertex with 2^16+1 candidates, past what a two-byte arena
		// holds: its lookups read four-byte lists beside the two-byte ones
		// of the other vertices, and count-only counts it from a histogram
		// of four-byte lists.
		{"wide-node", nil, nil, "", false, 2, true},
	}
	cases[1].data, cases[1].query = gen.RandomPair(7)
	cases[len(cases)-1].data, cases[len(cases)-1].query = gen.WidePair(1<<16 + 1)

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.wantKernel != "" {
				totals := kernelCalls(t, tc.data, tc.query)
				if totals["enum_kernel_"+tc.wantKernel+"_calls"] == 0 {
					t.Fatalf("fixture did not drive the %s kernel: %v", tc.wantKernel, totals)
				}
			}
			tree, err := order.Preprocess(tc.data, tc.query, order.Options{})
			if err != nil {
				t.Fatalf("Preprocess: %v", err)
			}
			ix := ceci.Build(tc.data, tree, ceci.Options{})
			m := NewMatcher(ix, Options{Workers: 1, Strategy: workload.FGD})
			if n := tree.NumVertices(); tc.wantElim > 0 && m.elim != n-tc.wantElim {
				t.Fatalf("eliminated depth %d, want %d", m.elim, n-tc.wantElim)
			}
			skip := t.Skip
			if tc.wantElim > 0 {
				skip = t.Fatal // the histogram count must be exercised, not skipped
			}
			if tc.wantWide && !slices.ContainsFunc(ix.Nodes, func(n ceci.Node) bool { return !n.Narrow() && len(n.NTE) > 0 }) {
				t.Fatal("no vertex with non-tree edges has a four-byte arena")
			}
			units := m.units(nil)
			if len(units) == 0 {
				skip("no work units for this pair")
			}
			var seen, perPass int64
			consumer := &control{fn: func([]graph.VertexID) bool {
				seen++
				return true
			}}
			for _, ctl := range []*control{consumer, {}} { // a consumer, then count-only
				s := newSearcher(m, ctl)
				bitmap := false
				pass := func() {
					for _, u := range units {
						s.runUnit(u)
						for d := range s.scratch {
							bitmap = bitmap || s.scratch[d].BitmapFilled()
						}
					}
				}
				pass() // warm the per-depth cursors and intersection scratch
				s.drain(false, 0, 0)
				if seen == 0 {
					skip("pair has no embeddings; nothing steady-state to measure")
				}
				if perPass == 0 {
					perPass = seen
				}
				if counted := ctl.counted.Load(); counted != perPass {
					t.Fatalf("warm-up pass (consumer: %v) counted %d embeddings, the consumer sees %d a pass", ctl.fn != nil, counted, perPass)
				}
				if tc.wantBitmap && !bitmap {
					t.Fatal("fixture never probed an outer bitmap")
				}
				if tc.wantElim == 3 && ctl.fn == nil && s.corrected[1] == 0 {
					t.Fatal("the Z∩A correction was zero on every prefix")
				}
				if avg := testing.AllocsPerRun(20, pass); avg != 0 {
					t.Errorf("enumeration pass (consumer: %v) allocates %.1f times, want 0", ctl.fn != nil, avg)
				}
			}
		})
	}
}
