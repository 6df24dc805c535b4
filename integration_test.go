package ceci_test

// End-to-end integration tests: file loading through matching through
// result delivery, exercising the public API the way the cmd tools and
// a downstream user would.

import (
	"testing"

	"ceci"
	"ceci/internal/baseline"
	"ceci/internal/baseline/bare"
	"ceci/internal/baseline/cfl"
	"ceci/internal/baseline/dualsim"
	"ceci/internal/baseline/psgl"
	"ceci/internal/baseline/turboiso"
	"ceci/internal/cluster"
	"ceci/internal/gen"
	"ceci/internal/graph"
)

func TestFig1FromFiles(t *testing.T) {
	data, err := ceci.LoadGraphFile("testdata/fig1_data.lg")
	if err != nil {
		t.Fatal(err)
	}
	query, err := ceci.LoadGraphFile("testdata/fig1_query.lg")
	if err != nil {
		t.Fatal(err)
	}
	n, err := ceci.Count(data, query, nil)
	if err != nil {
		t.Fatal(err)
	}
	if n != 2 {
		t.Fatalf("count = %d, want 2 (the paper's Figure 1 embeddings)", n)
	}
}

// TestAllSystemsAgreeOnOneWorkload runs every matcher in the repository
// over the same realistic workload and requires identical counts: the
// core (all strategies), all five baselines, and the distributed
// simulation.
func TestAllSystemsAgreeOnOneWorkload(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep skipped in -short")
	}
	data := gen.WithRandomLabels(gen.Kronecker(10, 6, 31), 4, 32)
	query := gen.QuerySet(data, 4, 1, 17)
	if len(query) == 0 {
		t.Skip("no query region")
	}
	q := query[0]

	want, err := ceci.Count(data, q, &ceci.Options{Workers: 1})
	if err != nil {
		t.Fatal(err)
	}

	t.Run("strategies", func(t *testing.T) {
		for _, s := range []ceci.Strategy{ceci.StrategyStatic, ceci.StrategyCoarse, ceci.StrategyFine} {
			got, err := ceci.Count(data, q, &ceci.Options{Strategy: s, Workers: 4})
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("%v: got %d want %d", s, got, want)
			}
		}
	})

	t.Run("baselines", func(t *testing.T) {
		checks := []struct {
			name string
			f    baseline.ForEachFunc
		}{
			{"bare", bare.ForEach},
			{"psgl", psgl.ForEach},
			{"cfl", cfl.ForEach},
			{"turboiso", turboiso.ForEach},
			{"dualsim", func(d, qq *graph.Graph, o baseline.Options, fn func([]graph.VertexID) bool) error {
				return dualsim.ForEachOpt(d, qq, dualsim.Options{Options: o}, fn)
			}},
		}
		for _, c := range checks {
			got, err := baseline.CountWith(c.f, data, q, baseline.Options{Workers: 2})
			if err != nil {
				t.Fatalf("%s: %v", c.name, err)
			}
			if got != want {
				t.Fatalf("%s: got %d want %d", c.name, got, want)
			}
		}
	})

	t.Run("distributed", func(t *testing.T) {
		sim, err := cluster.NewSimulation(data, q)
		if err != nil {
			t.Fatal(err)
		}
		if sim.Embeddings() != want {
			t.Fatalf("cluster.Simulation: got %d want %d", sim.Embeddings(), want)
		}
	})
}

// TestStreamingUnderLimitStopsWorkers verifies first-k mode terminates
// promptly on a workload with far more embeddings than the limit.
func TestStreamingUnderLimitStopsWorkers(t *testing.T) {
	data := gen.Kronecker(11, 10, 41)
	m, err := ceci.Match(data, gen.QG1(), &ceci.Options{Limit: 50, Workers: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := m.Count(); got != 50 {
		t.Fatalf("count = %d, want 50", got)
	}
}
