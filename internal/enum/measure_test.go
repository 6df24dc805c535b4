package enum_test

import (
	"testing"

	"ceci/internal/ceci"
	"ceci/internal/enum"
	"ceci/internal/gen"
	"ceci/internal/order"
	"ceci/internal/workload"
)

// TestMeasureUnitsTotalsMatchCount: serial unit measurement must account
// for every embedding exactly once, for both cluster-granular and
// FGD-decomposed unit sets.
func TestMeasureUnitsTotalsMatchCount(t *testing.T) {
	data := gen.Kronecker(9, 8, 13)
	for _, qname := range []string{"QG1", "QG2", "QG3"} {
		query := gen.QueryGraphs()[qname]
		tree, err := order.Preprocess(data, query, order.DefaultOptions())
		if err != nil {
			t.Fatal(err)
		}
		ix := ceci.Build(data, tree, ceci.Options{})
		want := enum.NewMatcher(ix, enum.Options{Workers: 1}).Count()
		for _, strat := range []workload.Strategy{workload.CGD, workload.FGD} {
			m := enum.NewMatcher(ix, enum.Options{Workers: 8, Strategy: strat, Beta: 0.1})
			costs := m.MeasureUnits()
			var total int64
			for _, c := range costs {
				total += c.Embeddings
				if c.Duration < 0 {
					t.Fatalf("%s/%v: negative duration", qname, strat)
				}
			}
			if total != want {
				t.Fatalf("%s/%v: unit embeddings sum %d != count %d", qname, strat, total, want)
			}
		}
	}
}

// TestMeasureUnitsClusterGranularity: with CGD the units are exactly the
// embedding clusters.
func TestMeasureUnitsClusterGranularity(t *testing.T) {
	data := gen.Kronecker(8, 6, 7)
	tree, err := order.Preprocess(data, gen.QG1(), order.DefaultOptions())
	if err != nil {
		t.Fatal(err)
	}
	ix := ceci.Build(data, tree, ceci.Options{})
	m := enum.NewMatcher(ix, enum.Options{Workers: 4, Strategy: workload.CGD})
	costs := m.MeasureUnits()
	if len(costs) != len(ix.Pivots()) {
		t.Fatalf("units %d != pivots %d", len(costs), len(ix.Pivots()))
	}
	for i, c := range costs {
		if len(c.Unit.Pos) != 1 || c.Unit.Pivot(ix) != ix.Pivots()[i] {
			t.Fatalf("unit %d is not cluster-granular: %+v", i, c.Unit)
		}
	}
}
